(* The `stream` workload: a read/write mix through an octant_shard front
   over two octant_served children.

   Writes are {"op":"update"} frames.  Every target's session is opened
   from a base vector before the clock starts; the measured updates fold
   1-3-landmark deltas, retire epochs older than [retire_lag] on every
   [retire_every]th update, and reset to a fresh base on every
   [reset_every]th.  Reads are localize frames for the target's current
   base vector.  An update invalidates that key on the session's backend,
   so a read routed there next misses and goes through the batcher to a
   full solve.  Updates route sticky by target id, reads by cache key.

   Targets are visited in rounds, once each, in a seeded order drawn
   afresh every round, and each target cycles update, update, update,
   read.  Each block of the run sends that mix one op at a time (the
   update latency a lone client sees), then with a window in flight (the
   cluster's capacity on the mix), then open loop at [load_share] of that
   capacity.  A target never has two updates in flight: the daemon gives no order between pipelined
   updates of one target (its worker pool may apply them either way
   round), so the generator waits for the earlier reply instead.

   Through the front a target's session (routed by target id) and the
   reads of its base vector (routed by cache key) land on the same
   backend only by chance, and an update invalidates the cached read only
   there; elsewhere the read still hits.  The run reports the share it
   gets (lru.hit_ratio, lru.invalidations).  The daemons listen on fixed
   ports, so the front's ring, which hashes "HOST:PORT" names, and with
   it that share are the same on every run.

   The mix is an assumption, not recorded traffic: the repository has
   none.  [retire_every] and [reset_every] are chosen so that a run
   retires and resets steadily across the targets while one update in
   eight is a heavy one (a retire re-solves, a reset solves afresh), so
   most updates at the nominal rate are plain folds.  The 3:1
   update-to-read cycle, the 32 targets, the 1-3-landmark deltas and
   [load_share] are likewise chosen, not measured.

   Every reply is checked: reads against localize_one of the same
   quantized vector, updates against an in-process replay of the
   target's session, and every [sample_every]th update of a target
   against Session.replay_estimate at that prefix. *)

open Common
module P = Octant.Pipeline
module Pr = Octant_serve.Protocol
module Json = Octant_serve.Json
module Rules = Benchkit.Rules

let hosts = 14
let targets = 32
let load_share = 0.15
let limit_ms = 150.0
let window = targets / 2
let seq_rounds = 2
let sat_rounds = 2
let retire_every = 8
let retire_lag = 6
let reset_every = 24
let sample_every = 8
let setup_reps = 15

type op = Read of int * Pr.localize | Write of int * Pr.update  (* target, frame *)

(* The op stream; ops come out in send order.  Each target's own data
   (base vectors, deltas) comes from a stream fixed per target, the same
   on every seed, so the set of folds a run performs does not change with
   the seed; the seed draws the order the targets are visited in. *)
type gen = {
  rngs : Stats.Rng.t array;  (* per-target data stream *)
  inter : float array array;
  order_rng : Stats.Rng.t;
  perm : int array;  (* this round's visiting order of the targets *)
  base : float array array;  (* current base vector per target *)
  epoch : int array;
  updates : int array;
  phase : int array;  (* position in the update, update, update, read cycle *)
}

let update_frame ?base ?(delta = [||]) ?retire t epoch =
  {
    Pr.u_id = Json.Null;
    u_target = Printf.sprintf "t%d" t;
    u_epoch = epoch;
    u_base = base;
    u_delta = delta;
    u_retire_upto = retire;
    u_whois = None;
  }

let draw_base g t = Wire_wl.jittered_row g.rngs.(t) g.inter (t mod Array.length g.inter)

let new_gen ~seed inter =
  let order_rng = Stats.Rng.create ((seed * 104729) + 3) in
  let perm = Array.init targets Fun.id in
  Stats.Rng.shuffle order_rng perm;
  let rngs = Array.init targets (fun t -> Stats.Rng.create (1000 + t)) in
  (* Staggered update counts and cycle positions spread resets, retires
     and reads evenly over time, so any window of a run sees the same mix
     of reads and of cheap and heavy updates. *)
  let g =
    { rngs; inter; order_rng; perm; base = [||]; epoch = Array.make targets 0;
      updates = Array.init targets (fun t -> t mod reset_every);
      phase = Array.init targets (fun t -> t mod 4) }
  in
  { g with base = Array.init targets (draw_base g) }

(* Sent untimed before the measured phases: open every session, then
   read every base vector once so the result caches start warm. *)
let opens g =
  Array.append
    (Array.init targets (fun t -> Write (t, update_frame ~base:g.base.(t) t 0)))
    (Array.init targets (fun t -> Read (t, Wire_wl.localize_req g.base.(t))))

let next_update g t =
  g.updates.(t) <- g.updates.(t) + 1;
  let u = g.updates.(t) in
  let e = g.epoch.(t) + 1 in
  g.epoch.(t) <- e;
  if u mod reset_every = 0 then begin
    let b = draw_base g t in
    g.base.(t) <- b;
    update_frame ~base:b t e
  end
  else
    let b = g.base.(t) in
    let rng = g.rngs.(t) in
    let rec pick () =
      let lm = Stats.Rng.int rng (Array.length b) in
      if b.(lm) > 0.0 then lm else pick ()
    in
    let delta =
      Array.init (1 + Stats.Rng.int rng 3) (fun _ ->
          let lm = pick () in
          (lm, b.(lm) *. Stats.Rng.uniform rng 0.95 1.1))
    in
    let retire = if u mod retire_every = 0 && e > retire_lag then Some (e - retire_lag) else None in
    update_frame ~delta ?retire t e

(* Shuffle each half of [perm] in place.  A target then stays in its
   half, so two visits to it are always more than [targets / 2] ops
   apart, and the window never stalls on a target whose previous update
   is still in flight. *)
let shuffle_halves rng perm =
  let h = Array.length perm / 2 in
  let a = Array.sub perm 0 h and b = Array.sub perm h (Array.length perm - h) in
  Stats.Rng.shuffle rng a;
  Stats.Rng.shuffle rng b;
  Array.blit a 0 perm 0 h;
  Array.blit b 0 perm h (Array.length b)

(* The [i]th op (drawn in order of [i]): target perm.(i mod targets).
   Every round visits each target once, in a freshly shuffled order, so
   which heavy ops (resets, retires, read misses) run side by side
   changes from round to round instead of repeating all run long. *)
let next g i =
  if i > 0 && i mod targets = 0 then shuffle_halves g.order_rng g.perm;
  let t = g.perm.(i mod targets) in
  let p = g.phase.(t) in
  g.phase.(t) <- (p + 1) mod 4;
  if p = 3 then Read (t, Wire_wl.localize_req g.base.(t)) else Write (t, next_update g t)

let floats a = Json.List (Array.to_list (Array.map Json.num a))

let frame_of op i =
  let id = Json.Num (fi i) in
  let j =
    match op with
    | Read (_, r) -> Json.Obj [ ("id", id); ("rtt_ms", floats r.Pr.rtt_ms) ]
    | Write (_, u) ->
        Json.Obj
          ([ ("op", Json.Str "update"); ("id", id); ("target_id", Json.Str u.Pr.u_target);
             ("epoch", Json.Num (fi u.Pr.u_epoch)) ]
          @ (match u.Pr.u_base with Some b -> [ ("rtt_ms", floats b) ] | None -> [])
          @ (if Array.length u.Pr.u_delta = 0 then []
             else
               [ ( "delta",
                   Json.List
                     (Array.to_list
                        (Array.map (fun (lm, r) -> Json.List [ Json.Num (fi lm); Json.num r ]) u.Pr.u_delta))
                 ) ])
          @ match u.Pr.u_retire_upto with Some r -> [ ("retire_upto", Json.Num (fi r)) ] | None -> [])
  in
  Json.to_string j ^ "\n"

(* What the generator sent and got back, by op index. *)
type log = {
  ops : (int, op) Hashtbl.t;
  replies : (int, Json.t) Hashtbl.t;
  busy : bool array;  (* target has an update in flight *)
}

let new_log () =
  { ops = Hashtbl.create 4096; replies = Hashtbl.create 4096; busy = Array.make targets false }

let record log i op =
  Hashtbl.replace log.ops i op;
  match op with Write (t, _) -> log.busy.(t) <- true | Read _ -> ()

(* Receiver side: remember the reply, free the target. *)
let on_reply log _conn line =
  match Json.of_string line with
  | Error _ -> (-1, false)
  | Ok j -> (
      match Option.bind (Json.member "id" j) Json.to_int with
      | None -> (-1, false)
      | Some i ->
          Hashtbl.replace log.replies i j;
          (match Hashtbl.find_opt log.ops i with
          | Some (Write (t, _)) -> log.busy.(t) <- false
          | _ -> ());
          (i, Pr.status_of j = "ok"))

(* ---- the reference replay ---- *)

type check = {
  mutable mismatches : int;
  mutable checked : int;
  mutable sampled : int;
  fold_ms : float list ref;
  retire_ms : float list ref;
  mutable live_peak : int;
  estimates : (string, Octant.Estimate.t) Hashtbl.t;  (* read key -> localize_one estimate *)
}

let reply_fields = [ "status"; "lat"; "lon"; "area_km2"; "error_radius_km"; "top_weight";
                     "cells_used"; "constraints_used"; "height_ms" ]

let matches reply est =
  let want = Pr.ok_reply ~id:Json.Null ~cached:false ~audit:None est in
  List.for_all
    (fun k ->
      match (Json.member k reply, Json.member k want) with
      | Some a, Some b -> Json.equal a b
      | _ -> false)
    reply_fields

(* Replay ops [0, n) in order against [ctx]: sessions per target, reads
   through localize_one, and compare with the daemon's replies. *)
let replay ctx log ~n c =
  let sessions = Hashtbl.create targets in
  let updates = Array.make targets 0 in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt log.ops i with
    | None -> ()
    | Some op ->
        let expected =
          match op with
          | Read (_, r) ->
              let obs = Pr.observations_of r in
              let key = Pr.cache_key obs in
              (match Hashtbl.find_opt c.estimates key with
              | Some e -> Some e
              | None -> (
                  match P.localize_one ctx obs with
                  | Ok e ->
                      Hashtbl.replace c.estimates key e;
                      Some e
                  | Error _ -> None))
          | Write (t, u) -> (
              match Pr.base_observations_of u with
              | Some obs ->
                  let s, e = P.Session.create ~epoch:u.Pr.u_epoch ctx obs in
                  Hashtbl.replace sessions t s;
                  Some e
              | None -> (
                  match Hashtbl.find_opt sessions t with
                  | None -> None
                  | Some s ->
                      let delta = Pr.quantized_delta u in
                      let e, dt =
                        timed (fun () ->
                            P.Session.fold s { P.Session.d_rtts = delta; d_epoch = u.Pr.u_epoch })
                      in
                      c.fold_ms := (1000.0 *. dt) :: !(c.fold_ms);
                      let e =
                        match u.Pr.u_retire_upto with
                        | None -> e
                        | Some upto ->
                            let e, dt = timed (fun () -> P.Session.retire s ~upto_epoch:upto) in
                            c.retire_ms := (1000.0 *. dt) :: !(c.retire_ms);
                            e
                      in
                      c.live_peak <- max c.live_peak (P.Session.live_constraints s);
                      updates.(t) <- updates.(t) + 1;
                      if updates.(t) mod sample_every = 0 then begin
                        c.sampled <- c.sampled + 1;
                        let r = P.Session.replay_estimate s in
                        if not (same_estimate r e) then c.mismatches <- c.mismatches + 1;
                        Some r
                      end
                      else Some e))
        in
        c.checked <- c.checked + 1;
        match (expected, Hashtbl.find_opt log.replies i) with
        | Some e, Some reply when matches reply e -> ()
        | _ -> c.mismatches <- c.mismatches + 1
  done

(* ---- the cluster ---- *)

type cluster = { backends : Daemon.t list; front : Daemon.t }

(* Two adjacent free loopback ports, the same ones on every run of a
   quiet machine, so the front's ring (which hashes "HOST:PORT" names)
   and the share of reads that share a backend with their session are
   the same too.  They sit below Linux's ephemeral range (32768 up),
   where no client socket is handed one of them. *)
let fixed_ports () =
  let free p =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  let rec go p =
    if p > 29000 then failwith "stream: no free port pair"
    else if free p && free (p + 1) then [ p; p + 1 ]
    else go (p + 2)
  in
  go 28100

let backend_name port = Printf.sprintf "127.0.0.1:%d" port

let start_cluster ~trace ports =
  let t0 = now () in
  let backends =
    List.map Daemon.await (List.map (fun p -> Daemon.start "octant_served" (Wire_wl.daemon_args ~port:p ~hosts ~trace ())) ports)
  in
  let front =
    Daemon.await
      (Daemon.start "octant_shard"
         ([ "--port"; "0" ]
         @ List.concat_map (fun p -> [ "--backend"; backend_name p ]) ports
         @ if trace then [ "--telemetry"; "json" ] else []))
  in
  ({ backends; front }, now () -. t0)

let stop_cluster c =
  Daemon.stop c.front;
  List.iter Daemon.stop c.backends

(* Closed-loop sends of [ops], one at a time, recorded under indices
   from [first]. *)
let send_closed port log ops ~first =
  let conn = Loadgen.open_conn port Loadgen.Json in
  Array.iteri
    (fun k op ->
      let i = first + k in
      record log i op;
      Common.write_all conn.Loadgen.fd (frame_of op i);
      match Daemon.read_line_until conn.Loadgen.fd (now () +. 60.0) with
      | Some line -> ignore (on_reply log conn line)
      | None -> failwith "stream: no reply to a session-opening update")
    ops;
  Loadgen.close conn

type phases = {
  seq : Loadgen.closed;  (* one op at a time *)
  seq_updates : float array;  (* its update latencies, ms *)
  sat : Loadgen.closed;  (* [window] ops in flight *)
  sat_per_s : float;
  reads : Rules.account;
  writes : Rules.account;
  all : Rules.account;
  rate : float;  (* the last nominal slice's rate, ops/s *)
  n_ops : int;
  last_base : float array;  (* a current base vector, for probes *)
}

(* Open sessions, then run [blocks] blocks against [port], each of whole
   rounds: [seq_rounds] rounds one op at a time, [sat_rounds] rounds with
   [window] ops in flight, and one round open loop at [load_share] of the
   rate the windows have reached so far.  Every target takes the same
   steps on every seed, only in another order, so each phase does the
   same work on every run; and the blocks spread each phase over the
   whole run, so a few seconds of a slow host weigh on all three alike. *)
let run_phases ~seed ~inter ~port ~log ~blocks ~seq_rounds ~sat_rounds =
  let g = new_gen ~seed inter in
  let warm = opens g in
  send_closed port log warm ~first:0;
  let first = Array.length warm in
  let conns = [| Loadgen.open_conn port Loadgen.Json; Loadgen.open_conn port Loadgen.Json |] in
  (* Ops are drawn once, in index order; an update whose target still has
     one in flight waits (the loop keeps receiving and asks again). *)
  let drawn = Hashtbl.create 16 in
  let request i =
    let op =
      match Hashtbl.find_opt drawn i with
      | Some op -> op
      | None ->
          let op = next g (i - first) in
          Hashtbl.replace drawn i op;
          op
    in
    match op with
    | Write (t, _) when log.busy.(t) -> None
    | _ ->
        Hashtbl.remove drawn i;
        record log i op;
        Some ((match op with Write _ -> 0 | Read _ -> 1), frame_of op i)
  in
  let next_i = ref first in
  let phase ~window ~rounds =
    let c =
      Loadgen.closed_loop ~conns ~window ~count:(rounds * targets) ~first:!next_i ~request
        ~reply:(on_reply log) ()
    in
    next_i := !next_i + c.Loadgen.c_sent;
    c
  in
  let seqs = ref [] and sats = ref [] and nominal = ref [] in
  for _ = 1 to blocks do
    seqs := phase ~window:1 ~rounds:seq_rounds :: !seqs;
    sats := phase ~window ~rounds:sat_rounds :: !sats;
    let sent = List.fold_left (fun a c -> a + c.Loadgen.c_sent) 0 !sats in
    let secs = List.fold_left (fun a c -> a +. c.Loadgen.c_seconds) 0.0 !sats in
    let rate = Float.max 1.0 (load_share *. ratio (fi sent) secs) in
    let first = !next_i in
    let r =
      Loadgen.open_loop ~conns ~rate ~count:targets
        ~request:(fun i -> request (first + i))
        ~reply:(fun c line -> let i, ok = on_reply log c line in (i - first, ok))
        ~grace:5.0 ()
    in
    next_i := first + targets;
    nominal := (first, rate, r) :: !nominal
  done;
  Array.iter Loadgen.close conns;
  let sum f l = List.fold_left (fun a c -> a + f c) 0 l in
  let merge (l : Loadgen.closed list) =
    {
      Loadgen.c_sent = sum (fun c -> c.Loadgen.c_sent) l;
      c_failed = sum (fun c -> c.Loadgen.c_failed) l;
      c_seconds = List.fold_left (fun a c -> a +. c.Loadgen.c_seconds) 0.0 l;
      c_latency = Array.concat (List.rev_map (fun c -> c.Loadgen.c_latency) l);
    }
  in
  let seq = merge !seqs and sat = merge !sats in
  let seq_updates =
    Array.of_list
      (List.filter_map
         (fun (i, ms) -> match Hashtbl.find_opt log.ops i with Some (Write _) -> Some ms | _ -> None)
         (Array.to_list seq.Loadgen.c_latency))
  in
  (* The nominal slices' requests, in send order, as (op index, slice, index in slice). *)
  let slices = List.rev !nominal in
  let sub keep =
    let picked =
      List.concat_map
        (fun (first, _, r) -> List.filter (fun k -> keep (first + k)) (List.init targets Fun.id) |> List.map (fun k -> (r, k)))
        slices
    in
    let pick f = Array.of_list (List.map (fun (r, k) -> (f r).(k)) picked) in
    Rules.account ~limit_ms
      ~due:(pick (fun r -> r.Loadgen.due)) ~sent:(pick (fun r -> r.Loadgen.sent))
      ~answered:(pick (fun r -> r.Loadgen.answered)) ~ok:(pick (fun r -> r.Loadgen.ok))
  in
  let is_write i = match Hashtbl.find_opt log.ops i with Some (Write _) -> true | _ -> false in
  let writes = sub is_write and reads = sub (fun i -> not (is_write i)) and all = sub (fun _ -> true) in
  let rate = match !nominal with (_, r, _) :: _ -> r | [] -> 0.0 in
  { seq; seq_updates; sat; sat_per_s = ratio (fi sat.Loadgen.c_sent) sat.Loadgen.c_seconds; reads; writes;
    all; rate; n_ops = !next_i; last_base = g.base.(0) }

let new_check () =
  { mismatches = 0; checked = 0; sampled = 0; fold_ms = ref []; retire_ms = ref []; live_peak = 0;
    estimates = Hashtbl.create 256 }

let p50 a = if Array.length a.Rules.a_latency_ms = 0 then 0.0 else Rules.median a.Rules.a_latency_ms
let seq_p50 ph = if Array.length ph.seq_updates = 0 then 0.0 else Rules.median ph.seq_updates

(* Median closed-loop latency (ms) of [n] repeats of one JSON frame. *)
let probe_ms port frame n =
  let fd = Daemon.connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Rules.median
        (Array.init n (fun _ ->
             let t0 = now () in
             Common.write_all fd frame;
             ignore (Daemon.read_line_until fd (now () +. 30.0));
             1000.0 *. (now () -. t0))))

(* The front's own hop: a cached read through the front minus the same
   read sent straight to a backend (after one untimed send each, so both
   are cache hits). *)
let front_hop_ms cl base =
  let frame = frame_of (Read (0, Wire_wl.localize_req base)) 0 in
  let b = List.hd cl.backends in
  ignore (probe_ms cl.front.Daemon.port frame 1);
  ignore (probe_ms b.Daemon.port frame 1);
  probe_ms cl.front.Daemon.port frame 200 -. probe_ms b.Daemon.port frame 200

let run ~seed ~seconds ~trace =
  let w, inter, ctx = Wire_wl.daemon_context ~hosts in
  let c = new_check () in
  let ports = fixed_ports () in
  let blocks = max 1 (int_of_float (seconds /. 6.0)) in
  let setups =
    Daemon.with_busy_cpus (fun () ->
        List.init setup_reps (fun i ->
            let cl, t = start_cluster ~trace:false ports in
            if i < setup_reps - 1 then stop_cluster cl;
            (cl, t)))
  in
  let setup_s = Rules.median (Array.of_list (List.map snd setups)) in
  let cl = ref (fst (List.nth setups (setup_reps - 1))) in
  let untraced_p50 =
    if trace then begin
      let log = new_log () in
      let ph =
        Daemon.with_busy_cpus (fun () ->
            run_phases ~seed ~inter ~port:!cl.front.Daemon.port ~log
              ~blocks:1 ~seq_rounds ~sat_rounds)
      in
      replay ctx log ~n:ph.n_ops c;
      stop_cluster !cl;
      cl := fst (start_cluster ~trace:true ports);
      seq_p50 ph
    end
    else 0.0
  in
  let log = new_log () in
  let port = !cl.front.Daemon.port in
  let ph =
    Daemon.with_busy_cpus (fun () ->
        run_phases ~seed ~inter ~port ~log ~blocks ~seq_rounds ~sat_rounds)
  in
  (* Stats first: the hop probe's reads would count as cache hits. *)
  let stats = List.map (fun b -> Daemon.stats b.Daemon.port) !cl.backends in
  let front_stats = Daemon.stats port in
  let hop = if trace then front_hop_ms !cl ph.last_base else 0.0 in
  let sum path = List.fold_left (fun a s -> a +. Wire_wl.num_member s path) 0.0 stats in
  let hits = sum [ "cache"; "hits" ] and misses = sum [ "cache"; "misses" ] in
  let mem =
    List.fold_left (fun acc p -> acc +. peak_rss_mb ~pid:p.Daemon.pid ()) 0.0 (!cl.front :: !cl.backends)
  in
  stop_cluster !cl;
  replay ctx log ~n:ph.n_ops c;
  let behind = Rules.behind ~limit_ms ph.all in
  let med_err, covered =
    accuracy
      (List.filter_map
         (fun i ->
           match Hashtbl.find_opt log.ops i with
           | Some (Read (t, r)) ->
               Option.map
                 (fun e -> (e, Eval.Bridge.position w.bridge (t mod w.n)))
                 (Hashtbl.find_opt c.estimates (Pr.cache_key (Pr.observations_of r)))
           | _ -> None)
         (List.init (2 * targets) Fun.id))
  in
  let failed = ph.all.Rules.a_failed + ph.seq.Loadgen.c_failed + ph.sat.Loadgen.c_failed in
  let notes =
    [
      Printf.sprintf
        "stream: seed %d, %d targets over 2 backends; one at a time %d ops (update p50 %.3f ms over %d), saturating %d ops (window %d) at %.1f/s, then nominal %d ops at %.1f/s (%d updates)"
        seed targets ph.seq.Loadgen.c_sent (seq_p50 ph) (Array.length ph.seq_updates) ph.sat.Loadgen.c_sent
        window ph.sat_per_s ph.all.Rules.a_sent ph.rate ph.writes.Rules.a_sent;
      Printf.sprintf "nominal: read p50 %.3f ms, update p50 %.3f ms; generator lateness p99 %.3f ms, max %.3f ms%s"
        (p50 ph.reads) (p50 ph.writes) ph.all.Rules.a_late_p99_ms ph.all.Rules.a_late_max_ms
        (if behind then " -- fell behind, run invalid" else "");
      (let qs a =
         String.concat "/"
           (List.map
              (fun p -> if Array.length a = 0 then "-" else Printf.sprintf "%.1f" (Rules.quantile p a))
              [ 0.1; 0.25; 0.5; 0.75; 0.9 ])
       in
       Printf.sprintf "p10/p25/p50/p75/p90: reads %s ms, updates %s ms (limit %.0f ms); one at a time, updates %s ms"
         (qs ph.reads.Rules.a_latency_ms) (qs ph.writes.Rules.a_latency_ms) limit_ms (qs ph.seq_updates));
      "update latency tail: " ^ Rules.describe_tail ph.writes.Rules.a_latency_ms;
      "read latency tail: " ^ Rules.describe_tail ph.reads.Rules.a_latency_ms;
      Printf.sprintf "in-process: fold p50 %.2f ms (%d), retire p50 %.2f ms (%d)"
        (match !(c.fold_ms) with [] -> 0.0 | l -> Rules.median (Array.of_list l)) (List.length !(c.fold_ms))
        (match !(c.retire_ms) with [] -> 0.0 | l -> Rules.median (Array.of_list l)) (List.length !(c.retire_ms));
      Printf.sprintf "backend caches: %.0f hits, %.0f misses, %.0f invalidations" hits misses
        (sum [ "cache"; "invalidations" ]);
      Printf.sprintf "replies checked %d (%d against replay_estimate), mismatches %d, failed %d"
        c.checked c.sampled c.mismatches failed;
    ]
  in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_per_s" "1/s" ph.sat_per_s;
      m "p50_ms" "ms" (seq_p50 ph);
      m "within_limit_frac" "ratio" (ratio (fi ph.all.Rules.a_within) (fi ph.all.Rules.a_sent));
      m "median_error_mi" "mi" med_err;
      m "covered_frac" "ratio" covered;
      m "peak_mem_mb" "MB" mem;
    ]
  in
  let layers =
    if not trace then []
    else begin
      let med l = match !l with [] -> 0.0 | xs -> Rules.median (Array.of_list xs) in
      [
        m "stream.read_p50_ms" "ms" (p50 ph.reads);
        m "stream.update_p50_ms" "ms" (p50 ph.writes);
        m "batcher.mean_batch" "count" (ratio (sum [ "cache"; "misses" ]) (sum [ "batches" ]));
        m "server.request_p50_ms" "ms" (sum [ "request_p50_ms" ] /. 2.0);
        m "session.fold_ms" "ms" (med c.fold_ms);
        m "session.retire_ms" "ms" (med c.retire_ms);
        m "lru.invalidations" "count" (sum [ "cache"; "invalidations" ]);
        m "lru.hit_ratio" "ratio" (ratio hits (hits +. misses));
        m "shard.front_hop_ms" "ms" hop;
        m "shard.refan" "count" (Wire_wl.num_member front_stats [ "refan" ]);
        m "shard.backend_lost" "count" (Wire_wl.num_member front_stats [ "backend_lost" ]);
        m "session.live_constraints_peak" "count" (fi c.live_peak);
        m "trace.overhead" "ratio" (ratio (seq_p50 ph) untraced_p50);
      ]
    end
  in
  {
    (* The front must not have lost a backend or re-sent a request. *)
    correct =
      c.mismatches = 0 && failed = 0
      && Wire_wl.num_member front_stats [ "refan" ] = 0.0
      && Wire_wl.num_member front_stats [ "backend_lost" ] = 0.0;
    invalid = (if behind then Some "the generator fell behind its schedule" else None);
    attempted = ph.all.Rules.a_sent + ph.seq.Loadgen.c_sent + ph.sat.Loadgen.c_sent;
    failed;
    metrics = (if trace then layers else e2e);
    notes;
  }
