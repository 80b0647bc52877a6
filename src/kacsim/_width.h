/* Both vector kernels at one width.  _engine.c includes this file once per
 * width, with VW (doubles per vector), VW_TARGET (the attributes of every
 * function built here, for the ISA the width needs), VEC_MIN (the x86 min
 * intrinsic at this width) and the names of the width's two exports,
 * PAIR_PASS and ASSIGN, defined.  It types the width's vectors, builds the
 * pair pass and the assignment solver from their headers, and undefines
 * the macros again; the names the headers define are suffixed with VW.
 *
 * Helpers take vectors through pointers: a vector passed by value would
 * change the calling convention with the ISA (gcc's -Wpsabi). */

#define vec PASTE(vec, VW)
#define mask PASTE(mask, VW)
#define VW_FN static inline __attribute__((always_inline)) VW_TARGET
typedef double vec __attribute__((vector_size(VW * sizeof(double))));
typedef int64_t mask __attribute__((vector_size(VW * sizeof(int64_t))));

#include "_pair_pass.h"
#include "_assign_path.h"

#undef vec
#undef mask
#undef VW_FN
#undef VW
#undef VW_TARGET
#undef VEC_MIN
#undef PAIR_PASS
#undef ASSIGN
