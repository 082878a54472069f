/* poll(2) binding: the reactor's readiness backend.
 *
 * Calling convention (see Reactor.poll_raw):
 *   fds     : int array   — file descriptor numbers (poll skips a
 *                           negative one)
 *   events  : int array   — interest bits: 1 = readable, 2 = writable
 *   revents : int array   — written with readiness bits (same encoding);
 *                           POLLERR/POLLHUP/POLLNVAL are folded into both
 *                           directions the caller asked about, so error
 *                           conditions surface through whichever callback
 *                           is registered instead of being silently lost
 *   n       : int         — number of live entries (arrays may be longer)
 *   timeout : int         — milliseconds, -1 = block indefinitely
 *
 * Returns the number of ready entries. EINTR is reported as 0 ready
 * (the caller's loop recomputes deadlines and re-enters); any other
 * errno raises Failure. The OCaml runtime lock is released around the
 * syscall so other domains/threads keep running while we block.
 */

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

CAMLprim value rikit_poll_stub(value vfds, value vevents, value vrevents,
                               value vn, value vtimeout)
{
  CAMLparam5(vfds, vevents, vrevents, vn, vtimeout);
  int n = Int_val(vn);
  int timeout = Int_val(vtimeout);
  struct pollfd *pfd;
  int i, ret, saved_errno;

  if (n < 0) caml_invalid_argument("rikit_poll: negative count");
  pfd = (struct pollfd *)malloc(sizeof(struct pollfd) * (size_t)(n > 0 ? n : 1));
  if (pfd == NULL) caml_failwith("rikit_poll: out of memory");

  for (i = 0; i < n; i++) {
    int want = Int_val(Field(vevents, i));
    short ev = 0;
    if (want & 1) ev |= POLLIN;
    if (want & 2) ev |= POLLOUT;
    pfd[i].fd = Int_val(Field(vfds, i));
    pfd[i].events = ev;
    pfd[i].revents = 0;
  }

  caml_release_runtime_system();
  ret = poll(pfd, (nfds_t)n, timeout);
  saved_errno = errno;
  caml_acquire_runtime_system();

  if (ret < 0) {
    free(pfd);
    if (saved_errno == EINTR) {
      for (i = 0; i < n; i++) Store_field(vrevents, i, Val_int(0));
      CAMLreturn(Val_int(0));
    }
    caml_failwith("rikit_poll: poll(2) failed");
  }

  for (i = 0; i < n; i++) {
    short re = pfd[i].revents;
    int got = 0;
    /* Errors and hangups are folded into both directions; the OCaml
       dispatch layer gates callbacks on the registered interest set. */
    if (re & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) got |= 1;
    if (re & (POLLOUT | POLLERR | POLLHUP | POLLNVAL)) got |= 2;
    Store_field(vrevents, i, Val_int(got));
  }
  free(pfd);
  CAMLreturn(Val_int(ret));
}
