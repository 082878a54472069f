external fd_int : Unix.file_descr -> int = "%identity"

external poll_raw :
  int array -> int array -> int array -> int -> int -> int = "rikit_poll_stub"

let timeout_ms timeout =
  if timeout < 0. then -1
  else if timeout = 0. then 0
  else max 1 (int_of_float (ceil (timeout *. 1000.)))

let wait entries ~timeout =
  let n = Array.length entries in
  let fds = Array.make (max n 1) 0
  and events = Array.make (max n 1) 0
  and revents = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let fd, r, w = entries.(i) in
    fds.(i) <- fd_int fd;
    events.(i) <- (if r then 1 else 0) lor (if w then 2 else 0)
  done;
  let ready = poll_raw fds events revents n (timeout_ms timeout) in
  if ready = 0 then []
  else begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      let got = revents.(i) in
      if got <> 0 then begin
        let fd, want_r, want_w = entries.(i) in
        let r = want_r && got land 1 <> 0 and w = want_w && got land 2 <> 0 in
        (* An error-only wakeup on an entry is reported through every
           direction of interest so the owner notices the condition. *)
        let r, w = if r || w then (r, w) else (want_r, want_w) in
        out := (fd, r, w) :: !out
      end
    done;
    !out
  end

let wait_fd fd dir ~timeout =
  let entry =
    match dir with `Read -> (fd, true, false) | `Write -> (fd, false, true)
  in
  wait [| entry |] ~timeout <> []
