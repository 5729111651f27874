(* Output checks.  Every expected value here is computed from the
   generator parameters or by an independent engine, never copied from
   an earlier run of the program.  Each check returns [Error why] on a
   wrong answer; the selftest feeds each one a deliberately wrong answer
   to show that it does. *)

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let member path j =
  List.fold_left
    (fun acc k -> match acc with Some j -> Lidjson.member k j | None -> None)
    (Some j) path

let int_at path j =
  match member path j with Some (Lidjson.Int n) -> Some n | _ -> None

let bool_at path j =
  match member path j with Some (Lidjson.Bool b) -> Some b | _ -> None

let list_at path j =
  match member path j with Some (Lidjson.List l) -> l | _ -> []

(* ------------------------------------------------------------------ *)
(* Closed forms of the paper                                           *)

let ratio_eq (a, b) (c, d) = a * d = b * c

let ratio_min ((a, b) as x) ((c, d) as y) = if a * d <= c * b then x else y

(* A ring of [k] shells spanned by [r] full stations: S/(S+R). *)
let loop_bound ~k ~r = (k, k + r)

(* Full-station torus: the minimum over its row rings ([m] shells each)
   and column rings ([n] shells each), [per_hop] stations on every hop. *)
let torus_bound ~n ~m ~per_hop =
  ratio_min
    (loop_bound ~k:m ~r:(m * per_hop))
    (loop_bound ~k:n ~r:(n * per_hop))

(* Reconvergent fork/join (the paper's Fig. 1 generalised): the long
   branch crosses one shell, [m] counts the storage stages of the
   virtual loop and [i] the station imbalance; throughput (m-i)/m. *)
let reconvergent_bound ~r_short ~r_long =
  let m = r_short + r_long + 2 and i = r_long - r_short in
  (m - i, m)

(* Simple directed cycles of an [n] x [m] torus whose node (i,j) feeds
   (i,j+1) and (i+1,j), both modulo the size: each cycle is counted once,
   from its smallest node, by a depth-first search over larger nodes.
   Stops as soon as [limit] cycles are found. *)
let torus_cycles ~n ~m ~limit =
  let id i j = (i * m) + j in
  let succ v =
    let i = v / m and j = v mod m in
    [ id i ((j + 1) mod m); id ((i + 1) mod n) j ]
  in
  let on_path = Array.make (n * m) false in
  let count = ref 0 in
  let exception Enough in
  let rec dfs start v =
    List.iter
      (fun w ->
        if w = start then begin
          incr count;
          if !count >= limit then raise Enough
        end
        else if w > start && not on_path.(w) then begin
          on_path.(w) <- true;
          dfs start w;
          on_path.(w) <- false
        end)
      (succ v)
  in
  (try
     for s = 0 to (n * m) - 1 do
       on_path.(s) <- true;
       dfs s s;
       on_path.(s) <- false
     done
   with Enough -> ());
  !count

(* ------------------------------------------------------------------ *)
(* lint-fabrics                                                         *)

let predicted lint =
  match (int_at [ "predicted_throughput"; "tokens" ] lint,
         int_at [ "predicted_throughput"; "latency" ] lint) with
  | Some t, Some l -> Some (t, l)
  | _ -> None

let check_prediction ~expected lint =
  match predicted lint with
  | Some p when ratio_eq p expected -> Ok ()
  | Some (t, l) ->
      fail "predicted %d/%d, expected %d/%d" t l (fst expected) (snd expected)
  | None -> fail "no predicted throughput"

let severity_count sev j =
  List.length
    (List.filter
       (fun d -> member [ "severity" ] d = Some (Lidjson.String sev))
       (list_at [ "diagnostics" ] j))

let check_clean lint =
  if severity_count "error" lint > 0 then fail "lint reports an error"
  else if bool_at [ "stop_path"; "proved" ] lint <> Some true then
    fail "stop-path proof missing (gate_proved = false)"
  else Ok ()

(* [every_shell_fires]: a skeleton run of the fabric reached a periodic
   regime in which every shell fired — the paper's decision procedure. *)
let check_deadlock_free ~every_shell_fires compose =
  if severity_count "error" compose > 0 then fail "verify reports an error"
  else
    match bool_at [ "deadlock_free" ] compose with
    | Some true when every_shell_fires -> Ok ()
    | Some true -> fail "verify says deadlock-free, the skeleton wedges"
    | Some false -> fail "verify says not deadlock-free"
    | None -> fail "no deadlock_free verdict"

let lid007_count lint =
  List.length
    (List.filter
       (fun d -> member [ "code" ] d = Some (Lidjson.String "LID007"))
       (list_at [ "diagnostics" ] lint))

(* Whether the report says anywhere that its loop list is partial. *)
let admits_incomplete j =
  let words = [ "truncat"; "complete"; "capped"; "partial"; "omitted"; "summari" ] in
  let has_word k =
    let k = String.lowercase_ascii k in
    List.exists
      (fun w ->
        let lw = String.length w and lk = String.length k in
        let rec at i = i + lw <= lk && (String.sub k i lw = w || at (i + 1)) in
        at 0)
      words
  in
  let rec walk = function
    | Lidjson.Obj kvs -> List.exists (fun (k, v) -> has_word k || walk v) kvs
    | Lidjson.List l -> List.exists walk l
    | _ -> false
  in
  walk j

(* LID007 on a fabric with [half_loops] loops holding half stations (as
   counted by the benchmark, up to a bound above lint's count).
   [`Truncated]: lint lists fewer and does not say so — the operation
   fails.  [Error]: lint lists loops that do not exist. *)
let check_lid007 ~half_loops lint =
  let listed = lid007_count lint in
  if listed = half_loops then Ok `Complete
  else if listed > half_loops then
    fail "lint lists %d half-station loops, there are %d" listed half_loops
  else if admits_incomplete lint then Ok `Complete
  else Ok `Truncated

(* ------------------------------------------------------------------ *)
(* inject-campaigns                                                     *)

(* One report per fault of the campaign's own fault list, in order, and
   per-kind tallies in the JSON that sum to that number. *)
let check_campaign ~faults (result : Fault.Campaign.result) json =
  let n = List.length faults in
  let* () =
    if List.length result.reports <> n then
      fail "%d reports for %d faults" (List.length result.reports) n
    else if
      not
        (List.for_all2
           (fun (f : Fault.Model.t) (r : Fault.Classify.report) -> f = r.fault)
           faults result.reports)
    then fail "report faults differ from the campaign's fault list"
    else Ok ()
  in
  let tallied =
    List.fold_left
      (fun acc k ->
        match member [ "outcomes" ] k with
        | Some (Lidjson.Obj kvs) ->
            List.fold_left
              (fun acc (_, v) ->
                match v with Lidjson.Int c -> acc + c | _ -> acc)
              acc kvs
        | _ -> acc)
      0 (list_at [ "tally" ] json)
  in
  if tallied <> n then fail "tallies sum to %d, campaign has %d faults" tallied n
  else if int_at [ "injections" ] json <> Some n then
    fail "JSON reports %s injections, campaign has %d"
      (match int_at [ "injections" ] json with
      | Some k -> string_of_int k
      | None -> "no")
      n
  else Ok ()

(* A [Fault_driver] report against the serial oracle's report for the same
   fault. *)
let check_injection ~(oracle : Fault.Classify.report) (got : Fault.Classify.report) =
  if oracle.fault <> got.fault then fail "sample fault mismatch"
  else if oracle.outcome <> got.outcome then
    fail "outcome %s, serial oracle says %s"
      (Fault.Classify.outcome_to_string got.outcome)
      (Fault.Classify.outcome_to_string oracle.outcome)
  else if
    oracle.evidence.delivered <> got.evidence.delivered
    || oracle.evidence.recoveries <> got.evidence.recoveries
    || oracle.evidence.baseline_delivered <> got.evidence.baseline_delivered
  then fail "evidence differs from the serial oracle"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* serve-mix                                                            *)

let check_response ~id resp =
  match (member [ "ok" ] resp, member [ "id" ] resp) with
  | Some (Lidjson.Bool true), Some got when got = id -> Ok ()
  | Some (Lidjson.Bool true), _ -> fail "response does not echo its id"
  | _ ->
      fail "response not ok: %s"
        (match member [ "error" ] resp with
        | Some (Lidjson.String m) -> m
        | _ -> Lidjson.to_string resp)

let check_payload ~expected resp =
  match member [ "result" ] resp with
  | Some got when got = expected -> Ok ()
  | Some got ->
      fail "payload differs from the one-shot emitter: %s vs %s"
        (Lidjson.to_string got) (Lidjson.to_string expected)
  | None -> fail "response has no result"

let check_throughput ~expected resp =
  match member [ "result"; "system_throughput" ] resp with
  | Some (Lidjson.Float x) when Float.abs (x -. expected) < 1e-9 -> Ok ()
  | Some (Lidjson.Int x) when Float.abs (float_of_int x -. expected) < 1e-9 -> Ok ()
  | Some v ->
      fail "throughput %s, closed form %g" (Lidjson.to_string v) expected
  | None -> fail "no system_throughput"
