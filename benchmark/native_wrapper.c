/* Timing driver around one file emitted by wf_codegen::cemit::emit_c.
 * The emitted file is a complete program with static init()/kernel()/
 * final_hash(); including it with its main renamed gives this driver
 * access to them without editing the emitted text.
 *   argv[1] = repetitions; prints one kernel() wall time per line, then
 *   the output hash of the last repetition. */
#define _POSIX_C_SOURCE 199309L
#include <stdlib.h>
#include <time.h>
#define main wf_emitted_main
#include WF_KERNEL_FILE
#undef main

int main(int argc, char **argv) {
  int reps = argc > 1 ? atoi(argv[1]) : 1;
  int r;
  for (r = 0; r < reps; r++) {
    struct timespec a, b;
    init();
    clock_gettime(CLOCK_MONOTONIC, &a);
    kernel();
    clock_gettime(CLOCK_MONOTONIC, &b);
    printf("%.9f\n", (double)(b.tv_sec - a.tv_sec) + 1e-9 * (double)(b.tv_nsec - a.tv_nsec));
  }
  printf("%llu\n", final_hash());
  return 0;
}
