/* Monotonic host clock for the benchmark: nanoseconds as an untagged
   native int, so reading it allocates nothing on the OCaml heap. */
#include <time.h>
#include <caml/mlvalues.h>

intnat pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value pb_now_ns_byte(value unit)
{
  return Val_long(pb_now_ns(unit));
}

/* CPU time of the whole process (every domain), in nanoseconds.  Unlike
   the monotonic clock it does not advance while the host runs something
   else on the CPU, including a hypervisor's steal time. */
intnat pb_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value pb_cpu_ns_byte(value unit)
{
  return Val_long(pb_cpu_ns(unit));
}
