(* Shared plumbing: the seeded world, estimate comparison, process memory
   and the result line. *)

(* Seconds on the monotonic clock.  Nanoseconds since boot keep
   sub-nanosecond resolution as a float, where wall-clock seconds since
   1970 are quantized to about 0.24 us: enough to make sub-millisecond
   medians read the same on different runs. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* One reported number.  [name] and [unit_] match BENCHMARK.json. *)
type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* A workload's outcome: its metrics plus the counts of the result line. *)
type outcome = {
  correct : bool;
  invalid : string option;  (* why the run's numbers cannot be trusted *)
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* human-readable context printed above the result *)
}

(* The reference world every workload draws from: the topology and host
   set of Netsim.Deployment seed [topology_seed], measured once by
   Eval.Bridge's campaign exactly as octant_served measures it.  The
   workload seed never changes the world, only the requests sent to it,
   so accuracy figures are the same on every seed. *)
type world = {
  bridge : Eval.Bridge.t;
  n : int;
  zones : int array;  (* zone of each host, as in Netsim.Deployment's mix *)
}

let topology_seed = 7

let zone_of_region = function
  | Netsim.City.North_america -> 0
  | Netsim.City.Europe -> 1
  | Netsim.City.Asia -> 2
  | Netsim.City.South_america | Netsim.City.Middle_east | Netsim.City.Oceania
  | Netsim.City.Africa ->
      3

let world ~hosts () =
  let dep = Netsim.Deployment.make ~seed:topology_seed ~n_hosts:hosts () in
  let bridge = Eval.Bridge.create dep in
  let n = Eval.Bridge.host_count bridge in
  let zones =
    Array.init n (fun i ->
        zone_of_region
          (Netsim.Deployment.host_city dep (Eval.Bridge.host_id bridge i)).Netsim.City.region)
  in
  { bridge; n; zones }

(* Bit-level estimate equality; [solve_time_s] is a stopwatch reading and
   is the one field left out. *)
let same_estimate (a : Octant.Estimate.t) (b : Octant.Estimate.t) =
  let f x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let c (p : Geo.Geodesy.coord) (q : Geo.Geodesy.coord) =
    f p.Geo.Geodesy.lat q.Geo.Geodesy.lat && f p.Geo.Geodesy.lon q.Geo.Geodesy.lon
  in
  c a.Octant.Estimate.point b.Octant.Estimate.point
  && f a.Octant.Estimate.area_km2 b.Octant.Estimate.area_km2
  && f a.Octant.Estimate.top_weight b.Octant.Estimate.top_weight
  && a.Octant.Estimate.cells_used = b.Octant.Estimate.cells_used
  && a.Octant.Estimate.constraints_used = b.Octant.Estimate.constraints_used
  && f a.Octant.Estimate.target_height_ms b.Octant.Estimate.target_height_ms

(* Order-sensitive checksum of a run of estimates (same fields as
   [same_estimate]). *)
let checksum (ests : Octant.Estimate.t list) =
  let h = ref 0xcbf29ce484222325L in
  let mix x = h := Int64.mul (Int64.logxor !h x) 0x100000001b3L in
  List.iter
    (fun (e : Octant.Estimate.t) ->
      mix (Int64.bits_of_float e.Octant.Estimate.point.Geo.Geodesy.lat);
      mix (Int64.bits_of_float e.Octant.Estimate.point.Geo.Geodesy.lon);
      mix (Int64.bits_of_float e.Octant.Estimate.area_km2);
      mix (Int64.bits_of_float e.Octant.Estimate.top_weight);
      mix (Int64.of_int e.Octant.Estimate.cells_used);
      mix (Int64.of_int e.Octant.Estimate.constraints_used))
    ests;
  Printf.sprintf "%016Lx" !h

(* Accuracy against ground truth: (median error in miles, share covered). *)
let accuracy (pairs : (Octant.Estimate.t * Geo.Geodesy.coord) list) =
  match pairs with
  | [] -> (0.0, 0.0)
  | _ ->
      let errs =
        Array.of_list (List.map (fun (e, truth) -> Octant.Estimate.error_miles e truth) pairs)
      in
      let covered = List.length (List.filter (fun (e, truth) -> Octant.Estimate.covers e truth) pairs) in
      (Benchkit.Rules.median errs, float_of_int covered /. float_of_int (List.length pairs))

(* Peak resident set (VmHWM) of a process, in MB; [None] is this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Counters from the telemetry registry. *)
let counter (snap : Octant.Telemetry.snapshot) domain name =
  match
    List.find_opt
      (fun c -> c.Octant.Telemetry.c_domain = domain && c.Octant.Telemetry.c_name = name)
      snap.Octant.Telemetry.counters
  with
  | Some c -> c.Octant.Telemetry.c_value
  | None -> 0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Time [f ()] in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1)
  in
  go 0

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The one-line JSON result, always the last line of output. *)
let print_result (o : outcome) =
  let metrics =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value)
             mt.unit_)
         o.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed metrics
