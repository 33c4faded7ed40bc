(* Self-tests for the benchmark's own helpers (run by `dune test`). *)

open Benchkit

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* Percentiles. *)
  check "median odd" (close (Rules.median [| 3.; 1.; 2. |]) 2.0);
  check "median even" (close (Rules.median [| 4.; 1.; 2.; 3. |]) 2.5);
  check "quantile ends" (close (Rules.quantile 0.0 [| 5.; 1. |]) 1.0
                         && close (Rules.quantile 1.0 [| 5.; 1. |]) 5.0);
  (* Tail rule: at least 10 samples strictly beyond the reported value. *)
  check "tail needs > 10 samples" (Rules.tail (Array.init 10 float_of_int) = None);
  let xs = Array.init 50 (fun i -> float_of_int (49 - i)) in
  (match Rules.tail xs with
  | None -> check "tail 50" false
  | Some t ->
      let beyond = Array.fold_left (fun n x -> if x > t.Rules.t_value then n + 1 else n) 0 xs in
      check "tail 50 has 10 beyond" (beyond = 10);
      check "tail 50 percentile" (close t.Rules.t_percentile 80.0);
      check "tail 50 value" (close t.Rules.t_value 39.0);
      check "tail 50 n" (t.Rules.t_samples = 50));
  (match Rules.tail (Array.init 1000 float_of_int) with
  | Some t -> check "tail 1000 is p99" (close t.Rules.t_percentile 99.0 && close t.Rules.t_value 989.0)
  | None -> check "tail 1000" false);
  (* Due-time accounting: latency counts from the due time, a missing
     reply is a failure, and generator lateness is recorded. *)
  let nan = Float.nan in
  let a =
    Rules.account ~limit_ms:10.0
      ~due:[| 0.0; 0.010; 0.020; 0.030 |]
      ~sent:[| 0.0; 0.015; 0.020; 0.030 |]
      ~answered:[| 0.001; 0.016; nan; 0.050 |]
      ~ok:[| true; true; false; true |]
  in
  check "account sent" (a.Rules.a_sent = 4);
  check "account ok" (a.Rules.a_ok = 3);
  check "account failed counts the unanswered" (a.Rules.a_failed = 1);
  check "account latency from due" (close a.Rules.a_latency_ms.(1) 6.0);
  check "account within limit" (a.Rules.a_within = 2);
  check "account lateness max" (close a.Rules.a_late_max_ms 5.0);
  check "on schedule" (not (Rules.behind ~limit_ms:10.0 a));
  let late =
    Rules.account ~limit_ms:10.0 ~due:[| 0.0; 0.001; 0.002 |] ~sent:[| 0.002; 0.003; 0.004 |]
      ~answered:[| 0.0025; 0.0035; 0.0045 |] ~ok:[| true; true; true |]
  in
  check "behind schedule" (Rules.behind ~limit_ms:10.0 late);
  check "late sends charge latency" (close late.Rules.a_latency_ms.(0) 2.5);
  let b =
    Rules.account ~limit_ms:10.0 ~due:[| 0.0 |] ~sent:[| 0.0 |] ~answered:[| 0.001 |]
      ~ok:[| false |]
  in
  check "account error reply is a failure" (b.Rules.a_failed = 1 && b.Rules.a_within = 0);
  (* Zone-interleaved split: both sides span every zone with >= 2 hosts,
     and every host lands on exactly one side. *)
  let zones = [| 'n'; 'n'; 'n'; 'n'; 'n'; 'e'; 'e'; 'e'; 'a'; 'a'; 'r'; 'r'; 'r' |] in
  let lms, tgts = Rules.interleave_split zones in
  let zones_of idx = List.sort_uniq compare (Array.to_list (Array.map (fun i -> zones.(i)) idx)) in
  check "split landmarks span zones" (zones_of lms = [ 'a'; 'e'; 'n'; 'r' ]);
  check "split targets span zones" (zones_of tgts = [ 'a'; 'e'; 'n'; 'r' ]);
  check "split partitions"
    (List.sort compare (Array.to_list lms @ Array.to_list tgts)
    = List.init (Array.length zones) Fun.id);
  check "split balanced" (abs (Array.length lms - Array.length tgts) <= 4);
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
