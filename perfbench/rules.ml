(* Pure helpers the benchmark's numbers rest on: percentiles, the tail
   rule, due-time latency accounting and the zone-interleaved split.
   Kept free of the repository's libraries so selftest.ml can pin them. *)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks, [q] in [0, 1]. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Rules.quantile: empty sample";
  let s = sorted xs in
  let rank = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median xs = quantile 0.5 xs

(* The tail rule: the highest percentile that still has at least [beyond]
   samples above it.  With [n] sorted samples that is the order statistic
   at index [n - beyond - 1], reported as percentile [100 (n - beyond) / n].
   [None] when the sample is too small to have such a percentile. *)
type tail = { t_percentile : float; t_value : float; t_samples : int }

let tail ?(beyond = 10) xs =
  let n = Array.length xs in
  if n <= beyond then None
  else
    let s = sorted xs in
    Some
      {
        t_percentile = 100.0 *. float_of_int (n - beyond) /. float_of_int n;
        t_value = s.(n - beyond - 1);
        t_samples = n;
      }

let describe_tail xs =
  match tail xs with
  | Some t -> Printf.sprintf "p%.2f of %d = %.3f ms" t.t_percentile t.t_samples t.t_value
  | None -> Printf.sprintf "too few samples (%d)" (Array.length xs)

(* Due-time accounting for an open-loop generator.  Request [i] was due
   at [due.(i)], actually written at [sent.(i)] and answered at
   [answered.(i)] ([nan] when no reply came back); [ok.(i)] tells whether
   the reply was a success.  Latency runs from the due time, so a
   generator that falls behind charges its own lateness to the latency
   instead of hiding it. *)
type account = {
  a_sent : int;
  a_ok : int;
  a_failed : int;           (* no reply, or a reply other than ok *)
  a_within : int;           (* ok and answered within the limit of its due time *)
  a_latency_ms : float array;   (* ok replies only, from due time *)
  a_late_p50_ms : float;    (* generator lateness: sent - due *)
  a_late_p99_ms : float;
  a_late_max_ms : float;
}

let account ~limit_ms ~due ~sent ~answered ~ok =
  let n = Array.length due in
  let lat = ref [] and n_ok = ref 0 and within = ref 0 in
  let late = Array.make (max n 1) 0.0 in
  for i = 0 to n - 1 do
    late.(i) <- 1000.0 *. Float.max 0.0 (sent.(i) -. due.(i));
    if ok.(i) && not (Float.is_nan answered.(i)) then begin
      incr n_ok;
      let l = 1000.0 *. (answered.(i) -. due.(i)) in
      lat := l :: !lat;
      if l <= limit_ms then incr within
    end
  done;
  {
    a_sent = n;
    a_ok = !n_ok;
    a_failed = n - !n_ok;
    a_within = !within;
    a_latency_ms = Array.of_list (List.rev !lat);
    a_late_p50_ms = (if n = 0 then 0.0 else quantile 0.5 (Array.sub late 0 n));
    a_late_p99_ms = (if n = 0 then 0.0 else quantile 0.99 (Array.sub late 0 n));
    a_late_max_ms = Array.fold_left Float.max 0.0 late;
  }

(* A generator has fallen behind its schedule when its typical request
   leaves later than a tenth of the latency limit: it could not sustain
   the offered rate, so the latencies measure the generator.  Isolated
   stalls (a descheduled process) only raise the tail of the lateness,
   and are charged to latency anyway since latency runs from the due
   time. *)
let behind ~limit_ms a = a.a_late_p50_ms > limit_ms /. 10.0

(* Zone-interleaved split.  Hosts are taken zone by zone in index order
   and dealt alternately to landmarks and targets, so both sets draw from
   every zone that has at least two hosts — unlike a prefix split, which
   puts the first (North American) half of a deployment on one side.
   Returns (landmark indices, target indices), each ascending. *)
let interleave_split (zones : 'z array) =
  let seen = Hashtbl.create 8 in
  let lms = ref [] and tgts = ref [] in
  Array.iteri
    (fun i z ->
      let k = Option.value ~default:0 (Hashtbl.find_opt seen z) in
      Hashtbl.replace seen z (k + 1);
      if k mod 2 = 0 then lms := i :: !lms else tgts := i :: !tgts)
    zones;
  (Array.of_list (List.rev !lms), Array.of_list (List.rev !tgts))
