(* The `wire` workload: hot-cache localize reads against a real
   octant_served child process over loopback.

   The key set (seeded jittered RTT vectors of the daemon's own hosts)
   fits the result cache and is warmed untimed, so the measured window is
   decode -> cache key -> LRU -> encode -> write -> loop, with no solver.
   One JSON and one OCTB connection carry alternate requests, in blocks
   of an open loop at a nominal rate below capacity (latency from each
   request's due time) and then a saturating window (replies per
   second). *)

open Common
module P = Octant.Pipeline
module Pr = Octant_serve.Protocol
module Json = Octant_serve.Json
module Rules = Benchkit.Rules

let hosts = 20
let n_keys = 32
let nominal_rate = 500.0
let limit_ms = 10.0
let window = 256
let blocks = 4
let setup_reps = 15

let daemon_args ?(port = 0) ~hosts ~trace () =
  [ "--seed"; string_of_int topology_seed; "--hosts"; string_of_int hosts; "--port"; string_of_int port;
    "--jobs"; "1" ]
  @ if trace then [ "--telemetry"; "json" ] else []

(* The daemon's resident context, rebuilt the way octant_served builds
   it: every host of the deployment is a landmark. *)
let daemon_context ~hosts =
  let w = world ~hosts () in
  let all = Array.init w.n Fun.id in
  let inter = Eval.Bridge.inter_rtt_for w.bridge all in
  let ctx =
    P.prepare
      ~landmarks:(Eval.Bridge.landmarks_for w.bridge ~exclude:(-1) all)
      ~inter_landmark_rtt_ms:inter ()
  in
  (w, inter, ctx)

(* Target vectors: host [h]'s measured RTT row with its own entry missing,
   each RTT inflated by a seeded factor in [1, 1.001): re-measurement
   noise, enough to make every vector a distinct cache key. *)
let jittered_row rng inter h =
  Array.mapi
    (fun j r -> if j = h || r <= 0.0 then -1.0 else r *. Stats.Rng.uniform rng 1.0 1.001)
    inter.(h)

let localize_req rtt_ms =
  { Pr.id = Json.Null; rtt_ms; whois = None; deadline_ms = None; want_audit = false }

(* JSON request text after the id member, e.g. ["rtt_ms":[...]}\n]. *)
let json_tail rtt_ms =
  let full =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Num 0.0); ("rtt_ms", Json.List (Array.to_list (Array.map Json.num rtt_ms))) ])
  in
  String.sub full 8 (String.length full - 8) ^ "\n"

(* Reply framing helpers: the request index echoed in a reply's id, and
   the reply with its id cut out (identical for every reply of one key). *)
let json_id_body line =
  (* {"id":N,...} *)
  match String.index_from_opt line 6 ',' with
  | Some c when String.starts_with ~prefix:"{\"id\":" line ->
      (int_of_string_opt (String.sub line 6 (c - 6)), String.sub line c (String.length line - c))
  | _ -> (None, line)

let octb_id_body payload =
  (* tag, has-id byte, u32 id length, id text, fields *)
  if String.length payload < 6 || payload.[1] <> '\001' then (None, payload)
  else
    let len = Int32.to_int (String.get_int32_le payload 2) in
    if len < 0 || 6 + len > String.length payload then (None, payload)
    else
      ( int_of_string_opt (String.sub payload 6 len),
        String.make 1 payload.[0] ^ String.sub payload (6 + len) (String.length payload - 6 - len) )

type keys = {
  reqs : Pr.localize array;
  host_of : int array;
  expected : Octant.Estimate.t array;
  order : int array;  (* seeded request sequence, cycled *)
}

let key_of k i = k.order.(i mod Array.length k.order)

(* The key set is the same on every seed (so are the accuracy figures);
   the seed draws the request sequence over it. *)
let make_keys ~seed inter ctx =
  let fixed = Stats.Rng.create 17 in
  let n = Array.length inter in
  let host_of = Array.init n_keys (fun k -> k mod n) in
  let reqs = Array.map (fun h -> localize_req (jittered_row fixed inter h)) host_of in
  let expected =
    Array.map
      (fun r ->
        match P.localize_one ctx (Pr.observations_of r) with
        | Ok e -> e
        | Error e -> failwith ("wire key does not localize: " ^ e))
      reqs
  in
  let rng = Stats.Rng.create ((seed * 7919) + 17) in
  let order = Array.init 8192 (fun _ -> Stats.Rng.int rng n_keys) in
  { reqs; host_of; expected; order }

(* Checks every reply against the expected encoding of its key's
   localize_one estimate: the first reply per key and codec is compared
   in full, the rest by their id-stripped bytes. *)
type checker = { bodies : (Loadgen.codec * int, string) Hashtbl.t; mutable mismatches : int }

let check_reply k ck (c : Loadgen.conn) frame =
  let id, body =
    match c.Loadgen.codec with Loadgen.Json -> json_id_body frame | Loadgen.Octb -> octb_id_body frame
  in
  match id with
  | None ->
      ck.mismatches <- ck.mismatches + 1;
      (-1, false)
  | Some i -> (
      let key = key_of k i in
      match Hashtbl.find_opt ck.bodies (c.Loadgen.codec, key) with
      | Some b when String.equal b body -> (i, true)
      | _ ->
          let expect cached =
            let r = Pr.ok_reply ~id:(Json.Num (fi i)) ~cached ~audit:None k.expected.(key) in
            match c.Loadgen.codec with
            | Loadgen.Json -> Json.to_string r
            | Loadgen.Octb -> Pr.Binary.encode_reply r
          in
          if String.equal frame (expect true) then begin
            Hashtbl.replace ck.bodies (c.Loadgen.codec, key) body;
            (i, true)
          end
          else if String.equal frame (expect false) then (i, true)
          else begin
            ck.mismatches <- ck.mismatches + 1;
            (i, false)
          end)

let request k tails i =
  let key = key_of k i in
  if i land 1 = 0 then Some (0, "{\"id\":" ^ string_of_int i ^ "," ^ tails.(key))
  else
    Some
      ( 1,
        Pr.Binary.frame
          (Pr.Binary.encode_request (Pr.Localize { (k.reqs.(key)) with Pr.id = Json.Num (fi i) })) )

(* Send every key once, closed loop, so the measured window is all hits. *)
let warm port k =
  let fd = Daemon.connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Array.iter
        (fun r ->
          Common.write_all fd ("{" ^ json_tail r.Pr.rtt_ms);
          match Daemon.read_line_until fd (now () +. 60.0) with
          | Some line when Pr.status_of (Result.value ~default:Json.Null (Json.of_string line)) = "ok" -> ()
          | _ -> failwith "warm-up request failed")
        k.reqs)

(* With the daemon on a CPU of its own, neither CPU is let idle while
   the nominal load runs: the generator polls without sleeping and a
   SCHED_IDLE busy loop holds the daemon's CPU between requests.  At
   500 req/s both CPUs would otherwise halt between requests, and each
   request then waits for the hypervisor to resume them.  That wait
   follows the host's load, not the daemon: in interleaved 2 s slices
   this p50 read 0.41-0.59 ms with both CPUs free to halt and
   0.19-0.29 ms with neither. *)
let nominal_slice ~cpu ~port ~k ~tails ~ck ~first ~seconds =
  let conns = [| Loadgen.open_conn port Loadgen.Json; Loadgen.open_conn port Loadgen.Octb |] in
  let count = max 200 (int_of_float (nominal_rate *. seconds)) in
  let r =
    Daemon.with_busy_cpus ~cpus:(Option.to_list cpu) (fun () ->
        Loadgen.open_loop ?spin:(Option.map (fun _ -> infinity) cpu) ~conns ~rate:nominal_rate ~count
          ~request:(fun i -> request k tails (first + i))
          ~reply:(fun c f ->
            let i, ok = check_reply k ck c f in
            (i - first, ok))
          ~grace:2.0 ())
  in
  Array.iter Loadgen.close conns;
  r

(* The nominal slices' requests, accounted together. *)
let account (rs : Loadgen.run list) =
  let cat f = Array.concat (List.map f rs) in
  Rules.account ~limit_ms ~due:(cat (fun r -> r.Loadgen.due)) ~sent:(cat (fun r -> r.Loadgen.sent))
    ~answered:(cat (fun r -> r.Loadgen.answered)) ~ok:(cat (fun r -> r.Loadgen.ok))

let saturate_slice ~port ~k ~tails ~ck ~first ~seconds =
  let conns = [| Loadgen.open_conn port Loadgen.Json; Loadgen.open_conn port Loadgen.Octb |] in
  let s =
    Loadgen.saturate ~conns ~window ~seconds ~warm:(seconds /. 10.0) ~buckets:2 ~first
      ~request:(request k tails) ~reply:(check_reply k ck)
  in
  Array.iter Loadgen.close conns;
  s

(* Microseconds per call of [f i], cycling i over [n] inputs. *)
let per_call_us ~n f =
  let reps = 20000 in
  let t0 = now () in
  for i = 0 to reps - 1 do
    ignore (Sys.opaque_identity (f (i mod n)))
  done;
  1e6 *. (now () -. t0) /. fi reps

let num_member j path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  |> Fun.flip Option.bind Json.to_float |> Option.value ~default:0.0

let run_on ~cpu ~seed ~seconds ~trace =
  let w, inter, ctx = daemon_context ~hosts in
  let k = make_keys ~seed inter ctx in
  let tails = Array.map (fun r -> json_tail r.Pr.rtt_ms) k.reqs in
  let ck = { bodies = Hashtbl.create 64; mismatches = 0 } in
  (* Set-up: spawn to "listening", several times; the last one serves. *)
  let spawns =
    Daemon.with_busy_cpus ~cpus:(Option.to_list cpu) (fun () ->
        List.init setup_reps (fun i ->
            let p, t = Daemon.spawn ?cpu "octant_served" (daemon_args ~hosts ~trace:false ()) in
            if i < setup_reps - 1 then Daemon.stop p;
            (p, t)))
  in
  let setup_s = Rules.median (Array.of_list (List.map snd spawns)) in
  let d = ref (fst (List.nth spawns (setup_reps - 1))) in
  warm !d.Daemon.port k;
  let untraced_p50 =
    if trace then begin
      let a =
        account [ nominal_slice ~cpu ~port:!d.Daemon.port ~k ~tails ~ck ~first:0 ~seconds:(Float.min 2.0 (seconds /. 4.0)) ]
      in
      Daemon.stop !d;
      let p, _ = Daemon.spawn ?cpu "octant_served" (daemon_args ~hosts ~trace:true ()) in
      d := p;
      warm p.Daemon.port k;
      Rules.median a.Rules.a_latency_ms
    end
    else 0.0
  in
  let port = !d.Daemon.port in
  (* [blocks] times a nominal slice then a saturating slice, each a
     [2 * blocks]th of the run, so both phases see the whole run's host. *)
  let slice = seconds /. fi (2 * blocks) in
  let parts =
    List.init blocks (fun b ->
        let r = nominal_slice ~cpu ~port ~k ~tails ~ck ~first:(b * 1_000_000) ~seconds:slice in
        let s =
          if seconds <= 0.0 then None
          else Some (saturate_slice ~port ~k ~tails ~ck ~first:((blocks + b) * 1_000_000) ~seconds:slice)
        in
        (r, s))
  in
  let a = account (List.map fst parts) in
  let sats = List.filter_map snd parts in
  let sat =
    let windows = Array.concat (List.map (fun s -> s.Loadgen.s_windows) sats) in
    {
      Loadgen.s_sent = List.fold_left (fun n s -> n + s.Loadgen.s_sent) 0 sats;
      s_failed = List.fold_left (fun n s -> n + s.Loadgen.s_failed) 0 sats;
      s_per_s = (if windows = [||] then 0.0 else Rules.median windows);
      s_windows = windows;
    }
  in
  let stats = Daemon.stats port in
  let mem = peak_rss_mb ~pid:!d.Daemon.pid () in
  Daemon.stop !d;
  let behind = Rules.behind ~limit_ms a in
  let med_err, covered =
    accuracy
      (Array.to_list
         (Array.mapi (fun key e -> (e, Eval.Bridge.position w.bridge k.host_of.(key))) k.expected))
  in
  let p50 = Rules.median a.Rules.a_latency_ms in
  let notes =
    [
      Printf.sprintf "wire: seed %d, %d keys over %d landmarks; nominal %d req at %.0f/s, saturating %d req (window %d)"
        seed n_keys hosts a.Rules.a_sent nominal_rate sat.Loadgen.s_sent window;
      "nominal latency tail: " ^ Rules.describe_tail a.Rules.a_latency_ms;
      Printf.sprintf "generator lateness p50 %.3f p99 %.3f ms, max %.3f ms%s" a.Rules.a_late_p50_ms a.Rules.a_late_p99_ms
        a.Rules.a_late_max_ms (if behind then " -- fell behind, run invalid" else "");
      Printf.sprintf "saturating windows (1/s): %s"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") sat.Loadgen.s_windows)));
      Printf.sprintf "failed: nominal %d, saturating %d; reply mismatches %d" a.Rules.a_failed
        sat.Loadgen.s_failed ck.mismatches;
    ]
  in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_per_s" "1/s" sat.Loadgen.s_per_s;
      m "p50_ms" "ms" p50;
      m "within_limit_frac" "ratio" (ratio (fi a.Rules.a_within) (fi a.Rules.a_sent));
      m "median_error_mi" "mi" med_err;
      m "covered_frac" "ratio" covered;
      m "peak_mem_mb" "MB" mem;
    ]
  in
  let layers =
    if not trace then []
    else begin
      let nk = n_keys in
      let json_frames = Array.init nk (fun i -> "{\"id\":" ^ string_of_int i ^ "," ^ String.trim tails.(i)) in
      let octb_payloads =
        Array.init nk (fun i ->
            Pr.Binary.encode_request (Pr.Localize { (k.reqs.(i)) with Pr.id = Json.Num (fi i) }))
      in
      let replies =
        Array.init nk (fun i -> Pr.ok_reply ~id:(Json.Num (fi i)) ~cached:true ~audit:None k.expected.(i))
      in
      let cache_keys = Array.map (fun r -> Pr.cache_key (Pr.observations_of r)) k.reqs in
      let lru = Octant_serve.Lru.Sharded.create ~shards:8 ~capacity:1024 () in
      Array.iteri (fun i key -> Octant_serve.Lru.Sharded.add lru key k.expected.(i)) cache_keys;
      let json_dec =
        per_call_us ~n:nk (fun i ->
            match Json.of_string json_frames.(i) with Ok j -> Pr.parse_request j | Error e -> Error e)
      in
      let octb_dec = per_call_us ~n:nk (fun i -> Pr.Binary.decode_request octb_payloads.(i)) in
      let key_us = per_call_us ~n:nk (fun i -> Pr.cache_key (Pr.observations_of k.reqs.(i))) in
      let find_us = per_call_us ~n:nk (fun i -> Octant_serve.Lru.Sharded.find lru cache_keys.(i)) in
      let json_enc = per_call_us ~n:nk (fun i -> Json.to_string replies.(i)) in
      let octb_enc = per_call_us ~n:nk (fun i -> Pr.Binary.encode_reply replies.(i)) in
      let layered = ((json_dec +. octb_dec) /. 2.0) +. key_us +. find_us +. ((json_enc +. octb_enc) /. 2.0) in
      let hits = num_member stats [ "cache"; "hits" ] and misses = num_member stats [ "cache"; "misses" ] in
      [
        m "protocol.json_decode_us" "us" json_dec;
        m "protocol.octb_decode_us" "us" octb_dec;
        m "protocol.cache_key_us" "us" key_us;
        m "lru.find_us" "us" find_us;
        m "protocol.json_encode_us" "us" json_enc;
        m "protocol.octb_encode_us" "us" octb_enc;
        m "server.residual_us" "us" ((1000.0 *. p50) -. layered);
        m "lru.hit_ratio" "ratio" (ratio hits (hits +. misses));
        m "server.request_p50_ms" "ms" (num_member stats [ "request_p50_ms" ]);
        m "trace.overhead" "ratio" (ratio p50 untraced_p50);
      ]
    end
  in
  let failed = a.Rules.a_failed + sat.Loadgen.s_failed in
  {
    correct = ck.mismatches = 0 && failed = 0;
    invalid = (if behind then Some "the generator fell behind its schedule" else None);
    attempted = a.Rules.a_sent + sat.Loadgen.s_sent;
    failed;
    metrics = (if trace then layers else e2e);
    notes =
      (match cpu with
      | Some c -> Printf.sprintf "daemon pinned to CPU %d, generator to another; both kept busy at the nominal rate" c
      | None -> "not pinned: fewer than two CPUs or no taskset")
      :: notes;
  }

(* The generator and the daemon each run on a CPU of their own (see
   Daemon.with_own_cpu).  Left to the scheduler, the two sometimes share a
   CPU and sometimes not, and the saturating rate of one run differed
   from the next by up to 1.8x. *)
let run ~seed ~seconds ~trace =
  Daemon.with_own_cpu (fun cpu -> run_on ~cpu ~seed ~seconds ~trace)
