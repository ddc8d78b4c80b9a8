/* The demo matscale kernel with loop anchors, plus a main that times it
   and prints the elapsed seconds as the last token of its output. */
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

void matscale(size_t n, double A[n][n], double s) {
  /*@loop:i*/
  for (size_t i = 0; i < n; ++i) {
    /*@loop:j*/
    for (size_t j = 0; j < n; ++j)
      A[i][j] *= s;
  }
}

int main(void) {
  size_t n = 256;
  double (*A)[n] = malloc(sizeof(double[n][n]));
  if (!A)
    return 1;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      A[i][j] = 1.0 + (double)(i ^ j) / n;
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  for (int r = 0; r < 10; ++r)
    matscale(n, A, r % 2 ? 2.0 : 0.5);
  clock_gettime(CLOCK_MONOTONIC, &t1);
  int bad = A[n - 1][n - 1] <= 0.0;
  free(A);
  printf("%.9f\n", (double)(t1.tv_sec - t0.tv_sec) + (t1.tv_nsec - t0.tv_nsec) * 1e-9);
  return bad;
}
