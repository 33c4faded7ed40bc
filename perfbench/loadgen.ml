(* The load generator: one single-threaded event loop in the benchmark
   process, over at most two connections.  Sending and receiving share
   one select loop, so no runtime-lock hand-off between threads sits in
   the measured path.

   [open_loop] sends request [i] when it is due, at [t0 + i / rate],
   whether or not earlier replies have come back, and records due, sent
   and answered times per request (Rules.account turns those into
   latency from the due time and generator lateness).  [saturate] keeps a
   fixed window of requests in flight for a fixed time and counts the
   replies completed per second.

   [request i] returns the connection index and frame of request [i], or
   [None] while it may not be sent yet (the caller's ordering rule); the
   loop keeps receiving and asks again.  [reply conn frame] returns the
   request index a reply answers and whether it succeeded. *)

type codec = Json | Octb

type conn = {
  fd : Unix.file_descr;
  codec : codec;
  mutable buf : Bytes.t;
  mutable lo : int;  (* first unconsumed byte *)
  mutable hi : int;  (* end of received bytes *)
}

let open_conn port codec =
  let fd = Daemon.connect port in
  if codec = Octb then Common.write_all fd Octant_serve.Protocol.Binary.magic;
  { fd; codec; buf = Bytes.create 65536; lo = 0; hi = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Read what is available; [false] on end of stream. *)
let fill c =
  if c.lo = c.hi then begin
    c.lo <- 0;
    c.hi <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let live = c.hi - c.lo in
    let nb = if 2 * live > Bytes.length c.buf then Bytes.create (2 * Bytes.length c.buf) else c.buf in
    Bytes.blit c.buf c.lo nb 0 live;
    c.buf <- nb;
    c.lo <- 0;
    c.hi <- live
  end;
  match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
  | 0 -> false
  | k ->
      c.hi <- c.hi + k;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> true

(* The next complete reply frame, if one is buffered: a JSON line without
   its newline, or an OCTB payload without its length header. *)
let next_frame c =
  match c.codec with
  | Json -> (
      match Bytes.index_from_opt c.buf c.lo '\n' with
      | Some i when i < c.hi ->
          let s = Bytes.sub_string c.buf c.lo (i - c.lo) in
          c.lo <- i + 1;
          Some s
      | _ -> None)
  | Octb ->
      let h = Octant_serve.Protocol.Binary.header_length in
      if c.hi - c.lo < h then None
      else
        let len = Octant_serve.Protocol.Binary.decode_length (Bytes.sub_string c.buf c.lo h) in
        if c.hi - c.lo < h + len then None
        else begin
          let s = Bytes.sub_string c.buf (c.lo + h) len in
          c.lo <- c.lo + h + len;
          Some s
        end

(* Within this many seconds of the next due time the loop polls instead
   of sleeping in select, so sends leave on time. *)
let spin = 5e-5

(* Wait up to [timeout] seconds for replies and hand each one to
   [on_frame t conn frame], [t] being when it was read.  Connections at
   end of stream are dropped from [live]. *)
let poll live timeout ~on_frame =
  match Unix.select (List.map (fun c -> c.fd) !live) [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> ()
  | ready, _, _ ->
      let t = Common.now () in
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            if fill c then begin
              let rec drain () =
                match next_frame c with
                | Some f ->
                    on_frame t c f;
                    drain ()
                | None -> ()
              in
              drain ()
            end
            else live := List.filter (fun d -> d != c) !live)
        !live
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

type run = {
  due : float array;
  sent : float array;
  answered : float array;  (* nan: no reply *)
  ok : bool array;
}

(* Replies that have not arrived [grace] seconds after the last due time
   count as failed.  [spin] is how long before each due time the loop
   starts to poll; [infinity] never sleeps, so the generator's CPU never
   idles and a reply is read as soon as it lands. *)
let open_loop ?(spin = spin) ~conns ~rate ~count ~request ~reply ~grace () =
  let t0 = Common.now () +. 0.05 in
  let due = Array.init count (fun i -> t0 +. (float_of_int i /. rate)) in
  let sent = Array.make count Float.nan in
  let answered = Array.make count Float.nan in
  let ok = Array.make count false in
  let received = ref 0 and next = ref 0 in
  let live = ref (Array.to_list conns) in
  let on_frame t c f =
    let i, good = reply c f in
    if i >= 0 && i < count && Float.is_nan answered.(i) then begin
      answered.(i) <- t;
      ok.(i) <- good;
      incr received
    end
  in
  let deadline = due.(count - 1) +. grace in
  while !received < count && !live <> [] && Common.now () < deadline do
    let now = Common.now () in
    if !next < count && now >= due.(!next) then begin
      match request !next with
      | Some (ci, frame) ->
          sent.(!next) <- now;
          Common.write_all conns.(ci).fd frame;
          incr next
      | None -> poll live 1e-4 ~on_frame
    end
    else
      let until = if !next < count then due.(!next) else deadline in
      poll live (until -. now -. spin) ~on_frame
  done;
  { due; sent; answered; ok }

type saturation = {
  s_sent : int;
  s_failed : int;     (* error replies plus replies that never came *)
  s_per_s : float;    (* ok replies per second: median over the windows *)
  s_windows : float array;  (* per-window rates *)
}

(* Keep [window] requests in flight for [seconds]; the first [warm]
   seconds fill the pipeline and are not counted, the rest is split into
   [buckets] equal windows.  Request indices start at [first]. *)
let saturate ~conns ~window ~seconds ~warm ~buckets ~first ~request ~reply =
  let t0 = Common.now () in
  let t_meas = t0 +. warm and t_end = t0 +. seconds in
  let n_buckets = max 1 buckets in
  let bucket = (t_end -. t_meas) /. float_of_int n_buckets in
  let counts = Array.make n_buckets 0 in
  let sent = ref 0 and received = ref 0 and failed = ref 0 in
  let live = ref (Array.to_list conns) in
  let on_frame t c f =
    let _, good = reply c f in
    (if not good then incr failed
     else
       let b = int_of_float ((t -. t_meas) /. bucket) in
       if t >= t_meas && b < n_buckets then counts.(b) <- counts.(b) + 1);
    incr received
  in
  let rec fill_window () =
    if !sent - !received < window && Common.now () < t_end then
      match request (first + !sent) with
      | Some (ci, frame) ->
          Common.write_all conns.(ci).fd frame;
          incr sent;
          fill_window ()
      | None -> ()
  in
  while Common.now () < t_end && !live <> [] do
    fill_window ();
    poll live (Float.min 0.01 (t_end -. Common.now ())) ~on_frame
  done;
  let deadline = Common.now () +. 30.0 in
  while !received < !sent && !live <> [] && Common.now () < deadline do
    poll live 0.01 ~on_frame
  done;
  {
    s_sent = !sent;
    s_failed = !failed + (!sent - !received);
    s_per_s = Benchkit.Rules.median (Array.map (fun c -> float_of_int c /. bucket) counts);
    s_windows = Array.map (fun c -> float_of_int c /. bucket) counts;
  }

type closed = {
  c_sent : int;
  c_failed : int;  (* error replies plus replies that never came *)
  c_seconds : float;  (* from the first send to the last reply *)
  c_latency : (int * float) array;  (* request index, ms from send to reply: ok replies *)
}

(* Send the [count] requests [first, first + count) with at most [window]
   in flight, and wait for their replies; give up [timeout] seconds after
   the start.  A fixed amount of work, so its time is comparable between
   runs; with a window of 1 a closed loop, one request at a time. *)
let closed_loop ?(timeout = 120.0) ~conns ~window ~count ~first ~request ~reply () =
  let t0 = Common.now () in
  let sent = ref 0 and received = ref 0 and failed = ref 0 in
  let sent_at = Hashtbl.create (2 * window) and latency = ref [] in
  let live = ref (Array.to_list conns) in
  let on_frame t c f =
    let i, good = reply c f in
    match Hashtbl.find_opt sent_at i with
    | None -> ()
    | Some s ->
        Hashtbl.remove sent_at i;
        incr received;
        if good then latency := (i, 1000.0 *. (t -. s)) :: !latency else incr failed
  in
  let rec fill () =
    if !sent < count && !sent - !received < window then
      match request (first + !sent) with
      | Some (ci, frame) ->
          Hashtbl.replace sent_at (first + !sent) (Common.now ());
          Common.write_all conns.(ci).fd frame;
          incr sent;
          fill ()
      | None -> ()
  in
  while !received < count && !live <> [] && Common.now () < t0 +. timeout do
    fill ();
    poll live 0.01 ~on_frame
  done;
  {
    c_sent = !sent;
    c_failed = !failed + (!sent - !received);
    c_seconds = Common.now () -. t0;
    c_latency = Array.of_list (List.rev !latency);
  }
