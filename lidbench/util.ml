(* Timing, statistics, memory and result printing shared by the three
   workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Peak resident set of this process in MB (VmHWM), the figure a user
   sees as the command's memory high-water mark. *)
let peak_rss_mb () =
  let field = "VmHWM:" in
  let n = String.length field in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > n && String.sub l 0 n = field ->
            Scanf.sscanf (String.sub l n (String.length l - n)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* [q]-quantile (0 <= q <= 1) by linear interpolation between order
   statistics, as Python's statistics.quantiles (method "inclusive"). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Integer in the [i]-th of [n] equal strata of [lo, hi]: a seeded spread
   whose shape is the same for every seed, so a percentile never sits on
   a gap that one seed happens to leave open. *)
let stratum rng ~i ~n ~lo ~hi =
  let width = hi - lo + 1 in
  let a = lo + (width * i / n) and b = lo + (width * (i + 1) / n) - 1 in
  let b = max a b in
  a + Random.State.int rng (b - a + 1)

(* Same, on a logarithmic scale: for sizes whose cost grows steeply. *)
let log_stratum rng ~i ~n ~lo ~hi =
  let l = log (float_of_int lo) and h = log (float_of_int (hi + 1)) in
  let at k = exp (l +. ((h -. l) *. float_of_int k /. float_of_int n)) in
  let a = int_of_float (at i) and b = int_of_float (at (i + 1)) - 1 in
  let a = max lo (min hi a) in
  let b = max a (min hi b) in
  a + Random.State.int rng (b - a + 1)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A run repeats one round of operations a fixed number of times: as
   many rounds as take about [seconds] at [nominal] seconds per round
   (a round's duration measured at the commit that set it), at least
   one.  The count does not depend on how fast this run happens to be,
   so every run of a workload does the same work and a faster program
   shows as a shorter run, not as more rounds. *)
let rounds ~seconds ~nominal round =
  let k = max 1 (int_of_float ((seconds /. nominal) +. 0.5)) in
  let start = now () in
  for i = 0 to k - 1 do
    round i
  done;
  (k, now () -. start)

(* Set-up time: the inputs are made [reps] times, each time [k] times
   over so that one measurement spans enough of the machine's own
   speed swings to average them; the median of the [reps] per-input
   means is reported.  Each measurement starts from a compacted heap,
   so the garbage the one before left does not bill it for a major
   collection. *)
let setup_time ~reps ~k f =
  median
    (List.init reps (fun _ ->
         Gc.compact ();
         let t0 = now () in
         for _ = 1 to k do
           ignore (Sys.opaque_identity (f ()))
         done;
         (now () -. t0) /. float_of_int k))

(* Per-layer accumulators for the traced run: each span adds its
   duration (and an optional quantity such as allocated MB) under a
   name. *)
module Spans = struct
  type acc = { mutable total : float; mutable calls : int }

  let table : (string, acc) Hashtbl.t = Hashtbl.create 32

  let add ?(calls = 1) name v =
    match Hashtbl.find_opt table name with
    | Some a ->
        a.total <- a.total +. v;
        a.calls <- a.calls + calls
    | None -> Hashtbl.replace table name { total = v; calls }

  let span name f =
    let r, dt = time f in
    add name dt;
    r

  (* Bytes allocated on the OCaml heap while [f] runs, in MB. *)
  let alloc name f =
    let b0 = Gc.allocated_bytes () in
    let r = f () in
    add name ((Gc.allocated_bytes () -. b0) /. 1048576.0);
    r

  let mean name =
    match Hashtbl.find_opt table name with
    | Some a when a.calls > 0 -> a.total /. float_of_int a.calls
    | _ -> nan
end

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* A metric that was never measured (no call reached its layer) is a
   fault of the benchmark, not a figure: the run fails without a
   result rather than print one. *)
let print_result ~correct ~attempted ~failed metrics =
  (match List.filter (fun m -> not (Float.is_finite m.value)) metrics with
  | [] -> ()
  | missing ->
      Printf.eprintf "lidbench: not measured: %s\n"
        (String.concat ", " (List.map (fun m -> m.name) missing));
      exit 3);
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      Printf.bprintf b "%s%s: {\"value\": %.17g, \"unit\": %s}"
        (if i = 0 then "" else ", ")
        (Lidjson.quote m.name) m.value (Lidjson.quote m.unit_))
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* The end-to-end metrics every workload reports. *)
let end_to_end ~setup ~work ~elapsed ~op_ms =
  [
    metric "setup_s" "s" setup;
    metric "work_per_s" "1/s" (float_of_int work /. elapsed);
    metric "op_p50_ms" "ms" (quantile 0.5 op_ms);
    metric "op_p90_ms" "ms" (quantile 0.9 op_ms);
    metric "peak_mem_mb" "MB" (peak_rss_mb ());
  ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
