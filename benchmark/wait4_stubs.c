/* Resource usage for the benchmark runner: the peak resident set size
   of a reaped child and of this process, which OCaml's Unix library
   does not expose. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* (exit code, peak RSS in KiB); a child killed by signal s reports
   128 + s, as a shell would. */
value mdd_bench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(errno));
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* Peak resident set size of this process, in KiB. */
value mdd_bench_self_maxrss(value unit)
{
  struct rusage ru;
  (void)unit;
  memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return Val_long(ru.ru_maxrss);
}
