(* The `batch` workload: offline localization of the reference world.

   Landmarks and targets are interleaved across zones (Rules.interleave_split),
   every target carries the full measurement set (RTTs, traceroutes, WHOIS
   hint), and targets are localized one at a time through
   Pipeline.localize_batch ~jobs:1, in an order drawn from the seed.  Each
   pass runs on a freshly prepared context, so its geometry cache starts
   cold, as in a study that localizes each target once.  No serving code
   runs; solver.add and the clip kernels under it carry almost all of the
   time. *)

open Common
module P = Octant.Pipeline
module Rules = Benchkit.Rules

let hosts = 51
let setup_reps = 31
let limit_ms = 1000.0

type setup = {
  w : world;
  tgts : int array;
  landmarks : P.landmark array;
  inter : float array array;
  obs : P.observations array;
}

let make () =
  let w = world ~hosts () in
  let lms, tgts = Rules.interleave_split w.zones in
  let landmarks = Eval.Bridge.landmarks_for w.bridge ~exclude:(-1) lms in
  let inter = Eval.Bridge.inter_rtt_for w.bridge lms in
  let obs =
    Array.map (fun t -> Eval.Bridge.observations w.bridge ~landmark_indices:lms ~target:t) tgts
  in
  { w; tgts; landmarks; inter; obs }

let prepare s = P.prepare ~landmarks:s.landmarks ~inter_landmark_rtt_ms:s.inter ()

(* A context for one pass.  The previous pass's context is garbage by
   now and is collected first, so dead contexts do not pile up in the
   heap until a major cycle happens to run (Geom_cache still keeps each
   one's domain-local table; see README.md).  Telemetry is paused while
   the context is prepared, so the per-target counters count the passes'
   work only. *)
let fresh s =
  Gc.full_major ();
  let on = Octant.Telemetry.is_enabled () in
  Octant.Telemetry.disable ();
  let ctx = prepare s in
  if on then Octant.Telemetry.enable ();
  ctx

let localize ctx o =
  match (P.localize_batch ~undns:Eval.Bridge.undns ~jobs:1 ctx [| o |]).(0) with
  | Ok e -> Some e
  | Error _ -> None

(* Localize every target once, in a seeded order, timing each call. *)
let pass ~order s ctx =
  Array.map (fun i -> (i, timed (fun () -> localize ctx s.obs.(i)))) order

(* Untimed warm-up pass, then whole timed passes until [seconds] have
   passed, each on a fresh context (prepared untimed).  Every result must
   be Ok and equal, bit for bit, to the warm-up estimate of the same
   target. *)
let timed_passes ~seed ~seconds s =
  let n = Array.length s.obs in
  let order = Array.init n Fun.id in
  Stats.Rng.shuffle (Stats.Rng.create (seed + 101)) order;
  let first = Array.make n None in
  Array.iter (fun (i, (r, _)) -> first.(i) <- r) (pass ~order s (fresh s));
  let bad = ref (Array.fold_left (fun c r -> if r = None then c + 1 else c) 0 first) in
  let changed = ref 0 and lat = ref [] and rates = ref [] and done_ = ref 0 in
  let t0 = now () in
  while !rates = [] || now () -. t0 < seconds do
    let ctx = fresh s in
    let p, wall = timed (fun () -> pass ~order s ctx) in
    rates := (fi n /. wall) :: !rates;
    Array.iter
      (fun (i, (r, dt)) ->
        incr done_;
        lat := (1000.0 *. dt) :: !lat;
        match (r, first.(i)) with
        | Some e, Some e0 -> if not (same_estimate e e0) then incr changed
        | _ -> incr bad)
      p
  done;
  (order, first, Array.of_list !lat, Array.of_list !rates, !done_, !bad, !changed, now () -. t0)

let run ~seed ~seconds ~trace =
  let s = make () in
  let n = Array.length s.obs in
  (* Each rep starts from a collected heap, so a major slice left over
     from the rep before does not land in its timing. *)
  let preps =
    Array.init setup_reps (fun _ ->
        Gc.full_major ();
        timed (fun () -> prepare s))
  in
  let setup_s = Rules.median (Array.map snd preps) in
  let ref_ctx = fst preps.(0) in
  (* Untraced baseline for trace.overhead (traced runs only). *)
  let untraced_p50 =
    if trace then begin
      let _, _, lat, _, _, _, _, _ = timed_passes ~seed ~seconds:0.0 s in
      Rules.median lat
    end
    else 0.0
  in
  if trace then begin
    Octant.Telemetry.reset ();
    Octant.Telemetry.enable ()
  end;
  let order, first, lat, rates, done_, bad, changed, wall = timed_passes ~seed ~seconds s in
  let snap = Octant.Telemetry.snapshot () in
  Octant.Telemetry.disable ();
  (* Reference: a few targets through localize_one on an independently
     prepared context must match the timed results bit for bit. *)
  let ref_mismatch = ref 0 in
  for i = 0 to min n 4 - 1 do
    let j = i * n / 4 in
    match (P.localize_one ~undns:Eval.Bridge.undns ref_ctx s.obs.(j), first.(j)) with
    | Ok e, Some e0 when same_estimate e e0 -> ()
    | _ -> incr ref_mismatch
  done;
  let pairs =
    List.filter_map
      (fun i -> Option.map (fun e -> (e, Eval.Bridge.position s.w.bridge s.tgts.(i))) first.(i))
      (List.init n Fun.id)
  in
  let med_err, covered = accuracy pairs in
  let within =
    Array.fold_left (fun c l -> if l <= limit_ms then c + 1 else c) 0 lat
  in
  let ck = checksum (List.filter_map Fun.id (Array.to_list first)) in
  let correct = bad = 0 && changed = 0 && !ref_mismatch = 0 in
  let notes =
    [
      Printf.sprintf "batch: seed %d, %d landmarks, %d targets, %d timed localizations in %d passes (a fresh context each), %.2f s"
        seed (Array.length s.landmarks) n done_ (Array.length rates) wall;
      Printf.sprintf "estimate checksum %s; errors %d, changed estimates %d, reference mismatches %d"
        ck bad changed !ref_mismatch;
      "per-target tail: " ^ Rules.describe_tail lat;
    ]
  in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_per_s" "1/s" (Rules.median rates);
      m "p50_ms" "ms" (Rules.median lat);
      m "within_limit_frac" "ratio" (ratio (fi within) (fi done_));
      m "median_error_mi" "mi" med_err;
      m "covered_frac" "ratio" covered;
      m "peak_mem_mb" "MB" (peak_rss_mb ());
    ]
  in
  let layers =
    if not trace then []
    else begin
      (* Per-target layer probes: prepare_target, the arrangement (whose
         difference is solver.add), and Solver.solve with the context's
         threshold and band, against a localize of the same target.  Each
         side is one pass in the timed order on its own fresh context, so
         both see the geometry cache the timed passes see. *)
      let loc_ctx = fresh s and ctx = fresh s in
      let cfg = P.config ctx in
      let prep = Array.make n 0.0 and add = Array.make n 0.0 and solve = Array.make n 0.0 in
      let loc = Array.make n 0.0 in
      Array.iter
        (fun i ->
          let o = s.obs.(i) in
          let _, t_loc = timed (fun () -> localize loc_ctx o) in
          let _, t_p = timed (fun () -> P.prepare_target ~undns:Eval.Bridge.undns ctx o) in
          let (_, solver), t_a = timed (fun () -> P.arrangement ~undns:Eval.Bridge.undns ctx o) in
          let _, t_s =
            timed (fun () ->
                Octant.Solver.solve ~area_threshold_km2:cfg.P.area_threshold_km2
                  ~weight_band:cfg.P.weight_band solver)
          in
          loc.(i) <- t_loc;
          prep.(i) <- t_p;
          add.(i) <- Float.max 0.0 (t_a -. t_p);
          solve.(i) <- t_s)
        order;
      let sum = Array.fold_left ( +. ) 0.0 in
      let c d k = fi (counter snap d k) in
      (* Telemetry covered the warm-up pass as well as the timed ones. *)
      let per_target x = x /. fi (done_ + n) in
      let clips = c "clip" "inter" +. c "clip" "diff" in
      [
        m "pipeline.prepare_target_ms" "ms" (1000.0 *. Rules.median prep);
        m "solver.add_ms" "ms" (1000.0 *. Rules.median add);
        m "solver.solve_ms" "ms" (1000.0 *. Rules.median solve);
        m "pipeline.span_coverage" "ratio" ((sum prep +. sum add +. sum solve) /. sum loc);
        m "pipeline.prepare_s" "s" setup_s;
        m "heights.fit_iterations_per_target" "count" (per_target (c "heights" "fit_iterations"));
        m "clip.ops_per_target" "count" (per_target clips);
        m "clip.retry_ratio" "ratio" (ratio (c "clip" "degenerate_retries") clips);
        m "clip.fallbacks" "count/target" (per_target (c "clip" "degenerate_fallbacks"));
        m "solver.cells_dropped" "count/target" (per_target (c "solver" "cells_dropped"));
        m "clip.convex_fast_path_ratio" "ratio" (ratio (c "clip" "convex_fast_path") clips);
        m "geom_cache.hit_ratio" "ratio" (ratio (c "cache" "hits") (c "cache" "lookups"));
        m "gc.minor_words_per_target" "words" (per_target (c "gc" "minor_words"));
        m "trace.overhead" "ratio" (ratio (Rules.median lat) untraced_p50);
      ]
    end
  in
  {
    correct;
    (* The layer spans must account for the localize wall time, or the
       per-layer numbers do not explain the end-to-end ones. *)
    invalid =
      List.find_map
        (fun mt ->
          if mt.name = "pipeline.span_coverage" && mt.value < 0.9 then
            Some (Printf.sprintf "layer spans cover only %.2f of localize time" mt.value)
          else None)
        layers;
    attempted = done_ + n;
    failed = bad;
    metrics = (if trace then layers else e2e);
    notes;
  }
