(* octbench: the repository benchmark.

     octbench --workload batch|wire|stream|all --seed N --seconds S --trace 0|1

   Prints the run's context and every metric by name and unit, then, as
   the last line, one JSON object {correct, attempted, failed, metrics}.
   Untraced runs report the end-to-end metrics; traced runs (--trace 1)
   the per-layer ones.  Exits 1 when a correctness check fails (after the
   result line, which then says "correct": false) and 3, with no result
   line, when the run is invalid because the generator fell behind.  See
   README.md next to this file. *)

open Common

(* Every per-layer metric, in BENCHMARK.json order.  A workload reports
   the layers it exercises; the rest read 0 on that workload. *)
let per_layer =
  [
    ("pipeline.prepare_target_ms", "ms"); ("solver.add_ms", "ms"); ("solver.solve_ms", "ms");
    ("pipeline.span_coverage", "ratio"); ("pipeline.prepare_s", "s");
    ("heights.fit_iterations_per_target", "count"); ("clip.ops_per_target", "count");
    ("clip.retry_ratio", "ratio"); ("clip.fallbacks", "count/target");
    ("solver.cells_dropped", "count/target"); ("clip.convex_fast_path_ratio", "ratio");
    ("geom_cache.hit_ratio", "ratio"); ("gc.minor_words_per_target", "words");
    ("protocol.json_decode_us", "us"); ("protocol.octb_decode_us", "us");
    ("protocol.cache_key_us", "us"); ("lru.find_us", "us"); ("protocol.json_encode_us", "us");
    ("protocol.octb_encode_us", "us"); ("server.residual_us", "us"); ("lru.hit_ratio", "ratio");
    ("server.request_p50_ms", "ms"); ("stream.read_p50_ms", "ms"); ("stream.update_p50_ms", "ms");
    ("batcher.mean_batch", "count"); ("session.fold_ms", "ms"); ("session.retire_ms", "ms");
    ("lru.invalidations", "count"); ("shard.front_hop_ms", "ms"); ("shard.refan", "count");
    ("shard.backend_lost", "count"); ("session.live_constraints_peak", "count");
    ("trace.overhead", "ratio");
  ]

let complete_layers (o : outcome) =
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun mt -> mt.name = name) o.metrics with
        | Some mt -> mt
        | None -> m name unit_ 0.0)
      per_layer
  in
  { o with metrics }

let run_one name ~seed ~seconds ~trace =
  let o =
    match name with
    | "batch" -> Batch_wl.run ~seed ~seconds ~trace
    | "wire" -> Wire_wl.run ~seed ~seconds ~trace
    | "stream" -> Stream_wl.run ~seed ~seconds ~trace
    | w -> raise (Arg.Bad (Printf.sprintf "unknown workload %S (batch | wire | stream | all)" w))
  in
  if trace then complete_layers o else o

(* Share of CPU time the hypervisor stole, from /proc/stat's first line. *)
let cpu_times () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      let line = input_line ic in
      close_in ic;
      let v = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
      if List.length v >= 8 then Some (List.nth v 7, List.fold_left ( + ) 0 v) else None

let () =
  (* A signal still runs at_exit, which stops the child daemons. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch | wire | stream | all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "octbench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  let names = if !workload = "all" then [ "batch"; "wire"; "stream" ] else [ !workload ] in
  let outcomes =
    List.map
      (fun name ->
        Printf.printf "== %s ==\n%!" name;
        let before = cpu_times () in
        let o =
          try run_one name ~seed:!seed ~seconds:!seconds ~trace with
          | Arg.Bad msg ->
              prerr_endline msg;
              exit 2
          | Failure msg | Sys_error msg | Invalid_argument msg ->
              Printf.eprintf "octbench: %s failed: %s\n" name msg;
              exit 1
          | Unix.Unix_error (e, f, _) ->
              Printf.eprintf "octbench: %s failed: %s: %s\n" name f (Unix.error_message e);
              exit 1
        in
        List.iter (fun s -> Printf.printf "# %s\n" s) o.notes;
        (match (before, cpu_times ()) with
        | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
            Printf.printf "# CPU time stolen by the host during the run: %.1f%%\n"
              (100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
        | _ -> ());
        (match o.invalid with
        | Some why ->
            Printf.printf "# INVALID RUN: %s; no result reported\n%!" why;
            exit 3
        | None -> ());
        List.iter (fun mt -> Printf.printf "%-34s %16.6f %s\n" mt.name mt.value mt.unit_) o.metrics;
        if not o.correct then
          Printf.printf "# CORRECTNESS CHECK FAILED (%d of %d operations failed)\n%!" o.failed
            o.attempted;
        o)
      names
  in
  (match outcomes with [ o ] -> print_result o | _ -> ());
  if not (List.for_all (fun o -> o.correct) outcomes) then exit 1
