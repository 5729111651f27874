(* lint-fabrics: one operation is what [lidtool lint] (gate on) plus
   [lidtool verify --compose] cost on one fabric, passed in as spec
   text.  Topology analyses, RTL elaboration and the compositional
   discharge do the work; packed stepping does none. *)

module G = Topology.Generators
module Net = Topology.Network
open Lid.Relay_station

type shape =
  | Mesh of { n : int; m : int; per_hop : int }
  | Torus of { n : int; m : int; stations : kind list }
  | Butterfly of { k : int; per_hop : int }
  | Soc of { shells : int; seed : int; half : float }
  | Reconv of { r_short : int; r_head : int; r_tail : int }

type fabric = {
  shape : shape;
  text : string;  (** [Spec.print] of the generated network: the input *)
  channels : int;
}

let fulls k = List.init k (fun _ -> Full)

let network = function
  | Mesh { n; m; per_hop } -> G.mesh ~stations:(fulls per_hop) ~n ~m ()
  | Torus { n; m; stations } -> G.torus ~stations ~n ~m ()
  | Butterfly { k; per_hop } -> G.butterfly ~stations:(fulls per_hop) ~k ()
  | Soc { shells; seed; half } ->
      G.random_soc
        ~rng:(Random.State.make [| seed |])
        ~n_shells:shells ~half_probability:half ()
  | Reconv { r_short; r_head; r_tail } ->
      G.reconvergent ~r_short ~r_long_head:r_head ~r_long_tail:r_tail ()

let describe = function
  | Mesh { n; m; per_hop } -> Printf.sprintf "mesh %dx%d x%d" n m per_hop
  | Torus { n; m; stations } ->
      Printf.sprintf "torus %dx%d %s" n m
        (String.concat "," (List.map kind_to_string stations))
  | Butterfly { k; per_hop } -> Printf.sprintf "butterfly %d x%d" k per_hop
  | Soc { shells; seed; half } ->
      Printf.sprintf "soc %d seed=%d half=%g" shells seed half
  | Reconv { r_short; r_head; r_tail } ->
      Printf.sprintf "reconvergent %d/%d+%d" r_short r_head r_tail

(* Half-station tori whose loop list lint truncates at 1000 on every
   run: the same two inputs in every round, whatever the seed. *)
let truncation_cases =
  [
    Torus { n = 5; m = 5; stations = [ Half ] };
    Torus { n = 6; m = 6; stations = [ Full; Half ] };
  ]

(* Half-station tori small enough that all their loops (at most 388)
   stay under the cap. *)
let small_half_tori = [ (2, 2); (2, 3); (2, 4); (2, 5); (3, 2); (3, 3); (3, 4); (4, 3); (4, 4) ]

let mesh_top = 56

(* One round: 100 fabrics.  Sizes are spread by strata, so every seed
   draws the same size profile and a percentile never lands on a gap
   that one seed happens to leave open.  The knobs that multiply a
   fabric's size (stations per hop, aspect, half-station share) follow
   the stratum index, so a seed draws only sizes within strata and the
   total work of a round hardly depends on it.  The largest mesh is fixed and
   comes last: it sets the peak memory, on top of a heap the smaller
   fabrics before it have already grown. *)
let shapes rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let meshes =
    List.init 19 (fun i ->
           let n = Util.log_stratum rng ~i ~n:19 ~lo:4 ~hi:40 in
           Mesh { n; m = n + (i mod 3) - 1; per_hop = (if n < 20 then 1 + (i mod 2) else 1) })
  in
  let full_tori =
    List.init 16 (fun i ->
        let n = Util.stratum rng ~i ~n:16 ~lo:3 ~hi:13 in
        Torus { n; m = max 3 (n + (i mod 3) - 1); stations = fulls (1 + (i / 2 mod 2)) })
  in
  let half_tori =
    List.init 10 (fun _ ->
        let n, m = pick small_half_tori in
        Torus { n; m; stations = pick [ [ Half ]; [ Full; Half ]; [ Half; Full ] ] })
  in
  let butterflies =
    List.init 10 (fun i -> Butterfly { k = 2 + (i mod 6); per_hop = 1 + (i / 6) })
  in
  let socs =
    List.init 28 (fun i ->
        Soc
          {
            shells = Util.log_stratum rng ~i ~n:28 ~lo:8 ~hi:800;
            seed = Random.State.bits rng;
            half = (if i mod 2 = 0 then 0.0 else 0.25);
          })
  in
  let rec reconv () =
    let r_short = 1 + Random.State.int rng 4
    and r_head = 1 + Random.State.int rng 4
    and r_tail = 1 + Random.State.int rng 4 in
    if r_head + r_tail < r_short then reconv ()
    else Reconv { r_short; r_head; r_tail }
  in
  let reconvs = List.init 14 (fun _ -> reconv ()) in
  Util.shuffle rng
    (meshes @ full_tori @ half_tori @ truncation_cases @ butterflies @ socs
   @ reconvs)
  @ [ Mesh { n = mesh_top; m = mesh_top; per_hop = 1 } ]

let generate rng =
  List.map
    (fun shape ->
      let net = network shape in
      { shape; text = Topology.Spec.print net; channels = Net.n_edges net })
    (shapes rng)

(* ------------------------------------------------------------------ *)
(* The operation                                                        *)

let flavour = Layers.flavour

let op text : Layers.lint_output =
  let net = Layers.parse text in
  let report = Lint.Checks.run ~flavour ~data_width:16 ~gate:true net in
  let lint = Lint.Checks.to_json report in
  (* the second command is a fresh process: a fresh parse and an empty
     class-discharge memo *)
  Verify.Contract.memo_clear ();
  let net = Layers.parse text in
  let compose = Lint.Compose.to_json (Lint.Compose.run ~flavour net) in
  { lint; compose; gate_proved = None }

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)

let shells net =
  List.filter_map
    (fun (n : Net.node) ->
      match n.kind with Net.Shell _ -> Some n.id | _ -> None)
    (Net.nodes net)

let closed_form = function
  | Mesh _ | Butterfly _ -> Some (1, 1)
  | Torus { n; m; stations } when List.for_all (( = ) Full) stations ->
      Some (Oracle.torus_bound ~n ~m ~per_hop:(List.length stations))
  | Reconv { r_short; r_head; r_tail } ->
      Some (Oracle.reconvergent_bound ~r_short ~r_long:(r_head + r_tail))
  | Torus _ | Soc _ -> None

(* [`Ok] or [`Truncated] (a failed operation), or [Error] (a wrong
   answer). *)
let check f (o : Layers.lint_output) =
  let ( let* ) = Result.bind in
  let* lint = Lidjson.parse o.lint in
  let* compose = Lidjson.parse o.compose in
  let* () =
    match o.gate_proved with
    | None -> Oracle.check_clean lint
    | Some proved ->
        if Oracle.severity_count "error" lint > 0 then Error "lint reports an error"
        else if proved then Ok ()
        else Error "stop-path proof failed"
  in
  (* regenerated rather than kept: the run holds only spec text, so the
     live heap the operations start from does not grow with the inputs *)
  let net = network f.shape in
  let engine = Skeleton.Packed.create ~flavour net in
  let expected =
    match closed_form f.shape with
    | Some r -> Ok r
    | None -> (
        match Skeleton.Measure.steady_ratio_packed engine with
        | Some r -> Ok r
        | None -> Error "no steady state for the measured prediction")
  in
  let* expected = expected in
  let* () = Oracle.check_prediction ~expected lint in
  Skeleton.Packed.reset engine;
  let every_shell_fires =
    match Skeleton.Measure.analyze_packed engine with
    | Some r ->
        (not r.deadlocked)
        && List.for_all
             (fun s ->
               match List.assoc_opt s r.node_throughput with
               | Some t -> t > 0.0
               | None -> false)
             (shells net)
    | None -> false
  in
  let* () = Oracle.check_deadlock_free ~every_shell_fires compose in
  match f.shape with
  | Torus { n; m; stations } when List.mem Half stations -> (
      let limit = Oracle.lid007_count lint + 1 in
      match Oracle.check_lid007 ~half_loops:(Oracle.torus_cycles ~n ~m ~limit) lint with
      | Ok `Complete -> Ok `Ok
      | Ok `Truncated -> Ok `Truncated
      | Error _ as e -> e)
  | _ -> Ok `Ok

(* The [k] fabrics with the fewest channels, as spec text. *)
let smallest fabrics k =
  let sorted =
    List.sort (fun a b -> compare a.channels b.channels) (Array.to_list fabrics)
  in
  List.map (fun f -> f.text) (List.filteri (fun i _ -> i < k) sorted)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

let run ~seed ~seconds ~trace =
  let rng () = Random.State.make [| seed; 0x11f |] in
  let setup = Util.setup_time ~reps:5 ~k:32 (fun () -> generate (rng ())) in
  let fabrics = Array.of_list (generate (rng ())) in
  let n = Array.length fabrics in
  let first = Array.make n None in
  let same = ref true in
  let op_ms = ref [] in
  let opf = if trace then Layers.lint_split else op in
  let n_rounds, elapsed =
    Util.rounds ~seconds ~nominal:20.0 (fun _ ->
        Array.iteri
          (fun i f ->
            (* each operation stands for fresh CLI processes: start it
               from a compacted heap and an empty discharge memo *)
            Gc.compact ();
            Verify.Contract.memo_clear ();
            let o, dt = Util.time (fun () -> opf f.text) in
            op_ms := (dt *. 1000.0) :: !op_ms;
            match first.(i) with
            | None -> first.(i) <- Some o
            | Some o0 -> if o0.lint <> o.lint || o0.compose <> o.compose then same := false)
          fabrics)
  in
  Util.log "lint-fabrics: %d operations in %.2f s" (n * n_rounds) elapsed;
  let t_check = Util.now () in
  (* one seeded operation made again, whatever the number of rounds: it
     must print what it printed in the timed phase (the fixed largest
     mesh, last, is left out to keep the run short) *)
  (let i = Random.State.int (Random.State.make [| seed; 0xa6a |]) (n - 1) in
   Gc.compact ();
   Verify.Contract.memo_clear ();
   let o = opf fabrics.(i).text in
   match first.(i) with
   | Some o0 when o0.lint = o.lint && o0.compose = o.compose -> ()
   | _ -> same := false);
  let failed_inputs = ref 0 and correct = ref !same and work = ref 0 in
  Array.iteri
    (fun i f ->
      match first.(i) with
      | None -> ()
      | Some o -> (
          match check f o with
          | Ok `Ok -> work := !work + f.channels
          | Ok `Truncated -> incr failed_inputs
          | Error why ->
              correct := false;
              Util.log "lint-fabrics: %s: %s" (describe f.shape) why))
    fabrics;
  Util.log "lint-fabrics: checks %.1f s" (Util.now () -. t_check);
  if not !same then Util.log "lint-fabrics: outputs differ between repetitions";
  let metrics =
    if not trace then Util.end_to_end ~setup ~work:(!work * n_rounds) ~elapsed ~op_ms:!op_ms
    else begin
      let small = smallest fabrics 2 in
      Layers.campaign_sample small;
      Layers.serve_sample small;
      Layers.metrics ()
    end
  in
  (!correct, n * n_rounds, !failed_inputs * n_rounds, metrics)
