(* Child daemons: spawn octant_served / octant_shard from the dune build
   tree, wait for their "listening" line, query them, and stop them.
   Every spawned process is tracked so an aborted run still kills and
   reaps it. *)

type t = { pid : int; out : Unix.file_descr; port : int; mutable alive : bool }

let bin name = Filename.concat "_build/default/bin" (name ^ ".exe")
let live : t list ref = ref []

let reap p =
  if p.alive then begin
    p.alive <- false;
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    (try Unix.close p.out with Unix.Unix_error _ -> ());
    live := List.filter (fun q -> q.pid <> p.pid) !live
  end

let () = at_exit (fun () -> List.iter reap !live)

(* Read one line from [fd] within [deadline] (absolute time). *)
let read_line_until fd deadline =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Common.now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get byte 0);
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* "octant_served listening on 127.0.0.1:PORT (...)" -> PORT *)
let listening_port line =
  match Common.find_sub line "listening on " with
  | None -> None
  | Some i ->
      let addr = List.hd (String.split_on_char ' ' (String.sub line (i + 13) (String.length line - i - 13))) in
      Option.bind (String.rindex_opt addr ':') (fun j ->
          int_of_string_opt (String.sub addr (j + 1) (String.length addr - j - 1)))

(* Run taskset(1) with [args]; [false] when it fails or is not installed. *)
let taskset args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      match Unix.create_process "taskset" (Array.of_list ("taskset" :: args)) devnull devnull devnull with
      | pid -> ( match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false)
      | exception Unix.Unix_error _ -> false)

(* The CPUs this process may run on: Cpus_allowed_list as printed in
   /proc/self/status (e.g. "0-1"), and the first CPUs it names. *)
let allowed_cpus () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix:"Cpus_allowed_list:" line ->
            let list = String.trim (String.sub line 18 (String.length line - 18)) in
            let ids =
              List.concat_map
                (fun range ->
                  match List.map int_of_string_opt (String.split_on_char '-' range) with
                  | [ Some a ] -> [ a ]
                  | [ Some a; Some b ] -> List.init (max 0 (min (b - a + 1) 2)) (fun k -> a + k)
                  | _ -> [])
                (String.split_on_char ',' list)
            in
            Some (list, ids)
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* Run [f cpu] with this process pinned to one allowed CPU, [cpu] being
   a second one for the child daemon to take, then restore the old
   affinity.  With fewer than two CPUs, or no taskset, nothing is pinned
   and [cpu] is [None]. *)
let with_own_cpu f =
  let pid = string_of_int (Unix.getpid ()) in
  match allowed_cpus () with
  | Some (list, a :: b :: _) when taskset [ "-pc"; string_of_int a; pid ] ->
      Fun.protect ~finally:(fun () -> ignore (taskset [ "-pc"; list; pid ])) (fun () -> f (Some b))
  | _ -> f None

(* Start [argv], its stdout on a pipe, and track it. *)
let launch argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) devnull w devnull in
  Unix.close w;
  Unix.close devnull;
  let p = { pid; out = r; port = 0; alive = true } in
  live := p :: !live;
  p

(* Start [exe args], pinned to [cpu] when given; [await] blocks until it
   prints its listening line. *)
let start ?cpu name args =
  let exe = bin name in
  launch (match cpu with None -> exe :: args | Some c -> "taskset" :: "-c" :: string_of_int c :: exe :: args)

(* A busy loop on [cpu] at SCHED_IDLE priority: it runs only while
   nothing else wants that CPU, so the CPU never halts, and a request
   reaching a daemon there does not also wait for the hypervisor to
   resume a halted virtual CPU.  Stop it with [reap].  Without chrt the
   loop exits at once and nothing changes. *)
let keep_busy cpu =
  launch [ "taskset"; "-c"; string_of_int cpu; "chrt"; "-i"; "0"; "sh"; "-c"; "while :; do :; done" ]

(* Run [f ()] with a [keep_busy] loop on each of [cpus], by default
   each CPU this process may use (the first two). *)
let with_busy_cpus ?cpus f =
  let cpus =
    match cpus with Some l -> l | None -> ( match allowed_cpus () with Some (_, ids) -> ids | None -> [])
  in
  let keepers = List.map keep_busy cpus in
  Fun.protect ~finally:(fun () -> List.iter reap keepers) f

let await ?(timeout = 120.0) p =
  let deadline = Common.now () +. timeout in
  let rec wait () =
    match read_line_until p.out deadline with
    | None ->
        reap p;
        failwith (Printf.sprintf "daemon %d did not report listening within %.0f s" p.pid timeout)
    | Some line -> ( match listening_port line with Some port -> port | None -> wait ())
  in
  let p' = { p with port = wait () } in
  live := p' :: List.filter (fun q -> q.pid <> p.pid) !live;
  p'

(* Start and await; also returns the seconds from start to listening. *)
let spawn ?cpu name args =
  let t0 = Common.now () in
  let p = await (start ?cpu name args) in
  (p, Common.now () -. t0)

(* SIGTERM, drain its stdout (shutdown telemetry can exceed a pipe
   buffer), and reap; SIGKILL if it has not exited within [grace]. *)
let stop ?(grace = 20.0) p =
  if p.alive then begin
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Common.now () +. grace in
    let chunk = Bytes.create 65536 in
    let rec drain () =
      let left = deadline -. Common.now () in
      left > 0.0
      &&
      match Unix.select [ p.out ] [] [] left with
      | [], _, _ -> false
      | _ -> Unix.read p.out chunk 0 (Bytes.length chunk) = 0 || drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    in
    (* EOF on stdout means it is exiting; otherwise it overran [grace]. *)
    if not (drain ()) then (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    p.alive <- false;
    (try Unix.close p.out with Unix.Unix_error _ -> ());
    live := List.filter (fun q -> q.pid <> p.pid) !live
  end

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* One JSON control frame, closed-loop. *)
let query port frame =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Common.write_all fd (frame ^ "\n");
      match read_line_until fd (Common.now () +. 30.0) with
      | None -> failwith "no reply to control frame"
      | Some line -> (
          match Octant_serve.Json.of_string line with
          | Ok j -> j
          | Error e -> failwith ("bad control reply: " ^ e)))

let stats port = query port {|{"op":"stats"}|}
