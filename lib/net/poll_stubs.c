/* epoll(7) binding for the event-loop server, plus an RLIMIT_NOFILE bump.
 *
 * OCaml's Unix module only exposes select(2), whose fd_set caps file
 * descriptors at FD_SETSIZE (1024) -- useless for the 10k-connection
 * target.  These are the thinnest possible epoll wrappers.  The GC lock
 * is released around the blocking wait so worker threads keep running.
 *
 * Interest / readiness bits (shared with evloop.ml):
 *   1 = readable, 2 = writable, 4 = error/hangup.
 */

#ifndef __linux__
#error "the XRPC event-loop server requires Linux epoll(7)"
#endif

#include <errno.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

/* Raise RLIMIT_NOFILE towards [target] (10k connections need ~20k fds:
 * one per server conn plus one per in-process load-generator conn).
 * Best effort: tries the exact target (root may raise the hard limit),
 * falls back to the current hard limit.  Returns the resulting soft
 * limit so callers can scale their fan-out honestly. */
CAMLprim value xrpc_raise_nofile_stub(value vtarget)
{
  long target = Long_val(vtarget);
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_long(-1);
  if ((rlim_t)target > rl.rlim_cur) {
    struct rlimit want = rl;
    want.rlim_cur = (rlim_t)target;
    if ((rlim_t)target > want.rlim_max) want.rlim_max = (rlim_t)target;
    if (setrlimit(RLIMIT_NOFILE, &want) != 0) {
      want.rlim_cur = rl.rlim_max;
      want.rlim_max = rl.rlim_max;
      (void)setrlimit(RLIMIT_NOFILE, &want);
    }
  }
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_long(-1);
  return Val_long((long)rl.rlim_cur);
}

/* ------------------------------------------------------------------ */
/* epoll(7): O(ready) readiness for the 10k-connection tier            */
/* ------------------------------------------------------------------ */

/* poll(2) would rescan the whole pollfd array on every call, so at 10k
 * mostly-idle connections each loop iteration would burn ~0.5 ms
 * walking parked fds.  epoll keeps the interest set in the kernel
 * (level-triggered) and each wait returns only the ready fds. */

#include <sys/epoll.h>

CAMLprim value xrpc_epoll_create_stub(value unit)
{
  (void)unit;
  int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) caml_failwith("xrpc_epoll_create: epoll_create1 failed");
  return Val_int(fd);
}

/* op: 0 = ADD, 1 = MOD, 2 = DEL */
CAMLprim value xrpc_epoll_ctl_stub(value vep, value vop, value vfd, value vev)
{
  struct epoll_event ev;
  int op = Int_val(vop) == 0   ? EPOLL_CTL_ADD
           : Int_val(vop) == 1 ? EPOLL_CTL_MOD
                               : EPOLL_CTL_DEL;
  int bits = Int_val(vev);
  memset(&ev, 0, sizeof(ev));
  ev.events = ((bits & 1) ? EPOLLIN : 0) | ((bits & 2) ? EPOLLOUT : 0);
  ev.data.fd = Int_val(vfd);
  return Val_int(epoll_ctl(Int_val(vep), op, Int_val(vfd), &ev));
}

/* Returns a flat [|fd0; re0; fd1; re1; ...|] array of the ready set. */
CAMLprim value xrpc_epoll_wait_stub(value vep, value vmax, value vtimeout)
{
  CAMLparam3(vep, vmax, vtimeout);
  CAMLlocal1(vres);
  int max = Int_val(vmax);
  struct epoll_event *evs = malloc(sizeof(struct epoll_event) * (max ? max : 1));
  if (evs == NULL) caml_failwith("xrpc_epoll_wait: out of memory");
  caml_release_runtime_system();
  int n = epoll_wait(Int_val(vep), evs, max, Int_val(vtimeout));
  int saved_errno = errno;
  caml_acquire_runtime_system();
  if (n < 0) {
    free(evs);
    if (saved_errno == EINTR) CAMLreturn(caml_alloc(0, 0));
    caml_failwith("xrpc_epoll_wait: epoll_wait failed");
  }
  vres = caml_alloc(2 * n, 0);
  for (int i = 0; i < n; i++) {
    int re = 0;
    uint32_t e = evs[i].events;
    if (e & EPOLLIN) re |= 1;
    if (e & EPOLLOUT) re |= 2;
    if (e & (EPOLLERR | EPOLLHUP)) re |= 4;
    Store_field(vres, 2 * i, Val_int(evs[i].data.fd));
    Store_field(vres, 2 * i + 1, Val_int(re));
  }
  free(evs);
  CAMLreturn(vres);
}
