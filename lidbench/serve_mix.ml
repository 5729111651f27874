(* serve-mix: one client in a closed loop sends fixed-size batches of
   line-delimited JSON requests to a [Serve.Daemon] and waits for each
   response line.  One operation is one batch round trip: the daemon
   parses the line, processes the batch and renders the response line,
   as [lidtool serve] does per input line. *)

module G = Topology.Generators
module Net = Topology.Network
module J = Lidjson

type topology = {
  spec : string;  (** a [generate] line or printed spec text *)
  net : Net.t;  (** as generated, for the checks *)
  acyclic : bool;
  closed_form : float option;  (** exact system throughput, when known *)
  labels : string array;  (** channel labels, as edits name them *)
}

let topology ?closed_form ~acyclic spec net =
  let label (e : Net.edge) =
    Printf.sprintf "%s.%d->%s.%d" (Net.node net e.src.node).name e.src.port
      (Net.node net e.dst.node).name e.dst.port
  in
  { spec; net; acyclic; closed_form; labels = Array.of_list (List.map label (Net.edges net)) }

let generated ?closed_form ~acyclic line net =
  topology ?closed_form ~acyclic ("generate " ^ line) net

let printed ~acyclic net = topology ~acyclic (Topology.Spec.print net) net

let full k = List.init k (fun _ -> Lid.Relay_station.Full)

let strata = 12

(* The topology pool: small NoC fabrics, SoCs with and without loops,
   retx chains and the paper's figures — every family at every size
   stratum [z], so each seed's pool has the same size profile. *)
let pool rng =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let step z lo hi = lo + (z * (hi - lo) / (strata - 1)) in
  let near x = max 2 (x + int (-1) 1) in
  let mesh z =
    let n = step z 2 10 in
    let m = near n in
    generated ~closed_form:1.0 ~acyclic:true (Printf.sprintf "mesh %d %d" n m)
      (G.mesh ~n ~m ())
  in
  let torus z =
    let n = step z 2 6 and s = 1 + (z mod 2) in
    let m = near n in
    generated
      ~closed_form:(1.0 /. float_of_int (1 + s))
      ~acyclic:false
      (Printf.sprintf "torus %d %d stations=%s" n m
         (String.concat "," (List.init s (fun _ -> "full"))))
      (G.torus ~stations:(full s) ~n ~m ())
  in
  let butterfly z =
    let k = 1 + (z mod 4) in
    generated ~closed_form:1.0 ~acyclic:true (Printf.sprintf "butterfly %d" k)
      (G.butterfly ~k ())
  in
  let soc ~loops z =
    printed ~acyclic:(not loops)
      (G.random_soc ~rng ~n_shells:(step z 6 40 + int 0 2)
         ~loop_density:(if loops then 0.1 else 0.0)
         ())
  in
  (* jitter on the channel after the go-back-N station, not on it: a
     retx station with a delay table is a class of its own whose
     discharge explores ~10^5 states (seconds each) *)
  let chain z =
    let net =
      G.chain ~n_shells:(step z 3 10)
        ~source_pattern:(Topology.Pattern.periodic ~period:3 ~active:1 ())
        ()
    in
    let net = Net.with_stations net 0 [ Lid.Relay_station.Retx { depth = 6 } ] in
    printed ~acyclic:true
      (Net.with_latency net 1
         (Some (Lid.Latency.Jitter { base = 0; bound = 1 + (z mod 2); seed = int 0 99 })))
  in
  let fig1 z =
    printed ~acyclic:true
      (G.fig1 ~r_direct:(1 + (z mod 3)) ~r_to_b:(1 + (z / 3 mod 2)) ~r_from_b:(1 + (z / 6)) ())
  in
  let fig2 z =
    printed ~acyclic:false (G.fig2 ~stations_ab:(1 + (z mod 3)) ~stations_ba:(1 + (z / 4)) ())
  in
  let families = [| mesh; torus; butterfly; soc ~loops:false; soc ~loops:true; chain; fig1; fig2 |] in
  let nf = Array.length families in
  Array.init (nf * strata) (fun i -> families.(i mod nf) (i / nf))

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)

type request = {
  id : int;
  topo : topology;
  body : (string * J.t) list;  (** every member but the id *)
  edited : bool;
}

let batch_size = 8
let batches_per_round = 192

let edit rng topo =
  let n = Array.length topo.labels in
  let one () =
    let profile =
      if Random.State.bool rng then Printf.sprintf "fixed:%d" (1 + Random.State.int rng 3)
      else Printf.sprintf "jitter:0:%d:%d" (1 + Random.State.int rng 3) (Random.State.int rng 100)
    in
    J.Obj
      [
        ("channel", J.String topo.labels.(Random.State.int rng n));
        ("latency", J.String profile);
      ]
  in
  let k = 1 + Random.State.int rng 2 in
  (* distinct channels: an edit list names each channel once *)
  let rec pick acc =
    if List.length acc = k then acc
    else
      let e = one () in
      if List.exists (fun x -> J.member "channel" x = J.member "channel" e) acc then
        if n <= List.length acc then acc else pick acc
      else pick (e :: acc)
  in
  J.List (pick [])

type slot = Fresh of string | Repeat | Edit

(* The request mix of every block of 16 requests: a quarter repeat a
   recent request (a memo hit), an eighth patch latencies of a topology
   whose engine was recently pooled (a [Packed.resume]); equalize goes
   to acyclic topologies only, since cyclic ones are refused by design. *)
let slots =
  [|
    Fresh "lint"; Fresh "verify"; Fresh "throughput"; Repeat; Fresh "inject"; Fresh "lint";
    Edit; Repeat; Fresh "throughput"; Fresh "verify"; Repeat; Fresh "equalize"; Fresh "lint";
    Edit; Repeat; Fresh "throughput";
  |]

(* One round of [batches_per_round * batch_size] requests.  The fresh
   requests of each analysis walk their own seeded permutation of the
   pool, and a round is long enough for every analysis to visit every
   topology: each seed's round has the same cost profile.  A round
   names more distinct keys than the daemon's result cache holds, so no
   key is still cached when the next round repeats it. *)
let requests ~avoid rng topos =
  let n = batches_per_round * batch_size in
  let made = Array.make n None in
  let walks = Hashtbl.create 8 in
  let next_topo analysis =
    let order, k =
      match Hashtbl.find_opt walks analysis with
      | Some w -> w
      | None ->
          let w =
            (Array.of_list (Util.shuffle rng (List.init (Array.length topos) Fun.id)), ref 0)
          in
          Hashtbl.replace walks analysis w;
          w
    in
    let t = topos.(order.(!k mod Array.length order)) in
    incr k;
    t
  in
  let recent_engines = ref [] in
  let request i topo analysis flavour extra =
    {
      id = i;
      topo;
      body =
        [
          ("spec", J.String topo.spec);
          ("analysis", J.String analysis);
          ("flavour", J.String flavour);
        ]
        @ extra;
      edited = List.mem_assoc "edits" extra;
    }
  in
  (* the mix is exact per block of [slots], its order seeded per block,
     so a batch is no fixed half of the pattern *)
  let ns = Array.length slots in
  let block = ref [||] in
  for i = 0 to n - 1 do
    if i mod ns = 0 then block := Array.of_list (Util.shuffle rng (Array.to_list slots));
    let slot =
      match !block.(i mod ns) with
      | Edit when !recent_engines = [] -> Fresh "throughput"
      | (Repeat | Edit | Fresh _) as s -> if s = Repeat && i = 0 then Fresh "lint" else s
    in
    let r =
      match slot with
      | Repeat -> (
          let back = 1 + Random.State.int rng (min i 24) in
          match made.(i - back) with Some r -> { r with id = i } | None -> assert false)
      | Edit ->
          let topo, flavour =
            List.nth !recent_engines (Random.State.int rng (List.length !recent_engines))
          in
          request i topo "throughput" flavour [ ("edits", edit rng topo) ]
      | Fresh analysis ->
          let topo = next_topo analysis in
          let flavour = if i / Array.length slots mod 4 = 3 then "original" else "optimized" in
          let analysis, extra =
            match analysis with
            | "lint" -> ("lint", [ ("gate", J.Bool (i mod 3 > 0)) ])
            | "inject" ->
                ( "inject",
                  [
                    ("seed", J.Int (Random.State.int rng 1000));
                    ("cycles", J.Int (64 + (64 * (i / Array.length slots mod 4))));
                    ("sites", J.Int (1 + (i / Array.length slots mod 2)));
                  ] )
            | "equalize" when not topo.acyclic -> ("throughput", [])
            | a -> (a, [])
          in
          let flavour = if analysis = "inject" then "optimized" else flavour in
          (* a left-out campaign becomes a verify of the same topology,
             after its draws, so the rest of the round is unchanged *)
          let analysis, extra =
            if analysis = "inject" && avoid i then ("verify", []) else (analysis, extra)
          in
          if analysis = "throughput" then
            recent_engines := (topo, flavour) :: List.filteri (fun i _ -> i < 7) !recent_engines;
          request i topo analysis flavour extra
    in
    made.(i) <- Some r
  done;
  Array.map Option.get made

let to_json r = J.Obj (("id", J.Int r.id) :: r.body)

let inputs ~avoid seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let topos = pool rng in
  (topos, requests ~avoid rng topos)

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)

let flavour_of r =
  match List.assoc_opt "flavour" r.body with
  | Some (J.String "original") -> Lid.Protocol.Original
  | _ -> Lid.Protocol.Optimized

let int_member k r = match List.assoc_opt k r.body with Some (J.Int n) -> n | _ -> 0

(* The payload the one-shot command would print, on a freshly parsed
   network with the request's edits applied by channel label. *)
let one_shot r =
  let flavour = flavour_of r in
  let analysis =
    match List.assoc_opt "analysis" r.body with Some (J.String a) -> a | _ -> ""
  in
  let allow_direct = analysis = "lint" || analysis = "verify" in
  let net = Topology.Spec.parse_exn ~allow_direct r.topo.spec in
  let net =
    match List.assoc_opt "edits" r.body with
    | Some (J.List edits) ->
        List.fold_left
          (fun net e ->
            match (J.member "channel" e, J.member "latency" e) with
            | Some (J.String c), Some (J.String l) ->
                let id = ref (-1) in
                Array.iteri (fun i lab -> if lab = c then id := i) r.topo.labels;
                Net.with_latency net !id (Lid.Latency.of_string l)
            | _ -> net)
          net edits
    | _ -> net
  in
  match analysis with
  | "lint" ->
      let gate = List.assoc_opt "gate" r.body <> Some (J.Bool false) in
      J.parse_exn (Lint.Checks.to_json (Lint.Checks.run ~flavour ~data_width:16 ~gate net))
  | "verify" -> J.parse_exn (Lint.Compose.to_json (Lint.Compose.run ~flavour net))
  | "inject" ->
      let config =
        {
          Fault.Campaign.seed = int_member "seed" r;
          kinds = Fault.Model.all_kinds;
          cycles = int_member "cycles" r;
          flavour;
          max_sites_per_kind = int_member "sites" r;
          injections_per_site = 1;
        }
      in
      let lanes_used = ref 1 in
      let result =
        Campaign.Fault_driver.run ~jobs:1 ~on_lanes:(fun n _ -> lanes_used := n) config net
      in
      J.parse_exn (Fault.Campaign.json ~jobs:1 ~lanes_used:!lanes_used result)
  | "throughput" -> (
      match Skeleton.Measure.analyze_packed (Skeleton.Packed.create ~flavour net) with
      | Some m ->
          J.Obj
            [
              ("transient", J.Int m.transient);
              ("period", J.Int m.period);
              ("system_throughput", J.Float (Skeleton.Measure.system_throughput m));
              ("deadlocked", J.Bool m.deadlocked);
            ]
      | None -> J.Null)
  | "equalize" ->
      let net', _ = Topology.Equalize.optimize net in
      (* the additions list is the daemon's rendering; the spec and both
         bounds are the one-shot facts *)
      J.Obj
        [
          ("bound_before", J.Float (Topology.Elastic.throughput_bound net));
          ("bound_after", J.Float (Topology.Elastic.throughput_bound net'));
          ("spec", J.String (Topology.Spec.print net'));
        ]
  | _ -> J.Null

(* The fresh inject requests whose campaign raises in
   [Fault.Classify.align]: it reads past the end of the reference stream
   when a faulted sink delivers two or more tokens beyond it (see the
   README).  The exception escapes [Daemon.process] and takes the whole
   batch with it, and whether a seed draws such a campaign is chance,
   so [setup] leaves these requests out. *)
let crashing_injects seed =
  let _, reqs = inputs ~avoid:(fun _ -> false) seed in
  Array.to_list reqs
  |> List.filter (fun r ->
         List.assoc_opt "analysis" r.body = Some (J.String "inject")
         &&
         match one_shot r with
         | _ -> false
         | exception Invalid_argument _ -> true)
  |> List.map (fun r -> r.id)

let strip_additions = function
  | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> "additions") kvs)
  | j -> j

let check_sample r resp =
  let resp =
    match J.member "result" resp with
    | Some res when List.assoc_opt "analysis" r.body = Some (J.String "equalize") ->
        J.Obj [ ("result", strip_additions res) ]
    | _ -> resp
  in
  Oracle.check_payload ~expected:(one_shot r) resp

let check_closed_form r resp =
  match (r.topo.closed_form, List.assoc_opt "analysis" r.body) with
  | Some expected, Some (J.String "throughput") when not r.edited ->
      Oracle.check_throughput ~expected resp
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

(* Every class of component the pool holds, discharged once per
   flavour: the daemon starts with a full class-discharge memo. *)
let fill_memo topos =
  Array.iter
    (fun t ->
      List.iter
        (fun flavour -> ignore (Lint.Compose.run ~flavour t.net))
        [ Lid.Protocol.Optimized; Lid.Protocol.Original ])
    topos

let setup ~avoid seed =
  Verify.Contract.memo_clear ();
  let topos, reqs = inputs ~avoid seed in
  let lines =
    Array.init batches_per_round (fun b ->
        J.to_string (J.List (List.init batch_size (fun k -> to_json reqs.((b * batch_size) + k)))))
  in
  (* one job: with two, every batch's latency swung twofold between runs
     as the machine's neighbours came and went, and this mix of small
     requests ran no faster on two domains than on one *)
  let daemon = Serve.Daemon.create ~jobs:1 () in
  fill_memo topos;
  (topos, reqs, lines, daemon)

let sample_share = 0.05

let op daemon line =
  match J.parse line with
  | Ok (J.List items) ->
      let responses, _ = Serve.Daemon.process daemon items in
      (responses, J.to_string (J.List responses))
  | Ok _ | Error _ -> ([], "")

let traced_op seen daemon line =
  let items = match J.parse line with Ok (J.List items) -> items | _ -> [] in
  List.iter
    (fun item ->
      let body = match item with J.Obj kvs -> J.Obj (List.remove_assoc "id" kvs) | j -> j in
      let key = J.to_string body in
      let compute = not (Hashtbl.mem seen key) in
      Hashtbl.replace seen key ();
      Layers.serve_split ~compute (J.to_string item))
    items;
  Layers.daemon_batch daemon items

let run ~seed ~seconds ~trace =
  let left_out = crashing_injects seed in
  if left_out <> [] then
    Util.log "serve-mix: %d inject requests left out (Fault.Classify.align crash)"
      (List.length left_out);
  let avoid i = List.mem i left_out in
  let setup_s = Util.setup_time ~reps:11 ~k:1 (fun () -> setup ~avoid seed) in
  let topos, reqs, lines, daemon = setup ~avoid seed in
  let seen = Hashtbl.create 512 in
  let opf = if trace then traced_op seen daemon else op daemon in
  (* every round sends the same batches: a batch's latency is the median
     of its round trips, which keeps the machine's passing speed swings
     out of the percentiles *)
  let op_ms = Array.make (Array.length lines) [] and first = Array.make (Array.length reqs) None in
  let answered = ref 0 and bad = ref [] in
  let n_rounds, elapsed =
    Util.rounds ~seconds ~nominal:2.8 (fun _ ->
        Array.iteri
          (fun b line ->
            let (responses, _line), dt = Util.time (fun () -> opf line) in
            op_ms.(b) <- (dt *. 1000.0) :: op_ms.(b);
            List.iteri
              (fun k resp ->
                let r = reqs.((b * batch_size) + k) in
                match Oracle.check_response ~id:(J.Int r.id) resp with
                | Ok () -> (
                    incr answered;
                    match first.(r.id) with
                    | None -> first.(r.id) <- Some resp
                    | Some r0 ->
                        if compare r0 resp <> 0 then
                          bad := "response differs between rounds" :: !bad)
                | Error why -> bad := why :: !bad)
              responses)
          lines)
  in
  Util.log "serve-mix: %d operations in %.2f s" (Array.length lines * n_rounds) elapsed;
  let sample_rng = Random.State.make [| seed; 0x5a4 |] in
  let checked = ref 0 in
  Array.iter
    (fun r ->
      match first.(r.id) with
      | None -> bad := "no response" :: !bad
      | Some resp ->
          (match check_closed_form r resp with Ok () -> () | Error why -> bad := why :: !bad);
          if Random.State.float sample_rng 1.0 < sample_share then begin
            incr checked;
            match check_sample r resp with Ok () -> () | Error why -> bad := why :: !bad
          end)
    reqs;
  List.iter (fun why -> Util.log "serve-mix: %s" why)
    (List.filteri (fun i _ -> i < 5) (List.sort_uniq compare !bad));
  Util.log "serve-mix: %d sampled results checked against one-shot emitters" !checked;
  let metrics =
    if not trace then
      Util.end_to_end ~setup:setup_s ~work:!answered ~elapsed
        ~op_ms:(Array.to_list (Array.map Util.median op_ms))
    else begin
      let small = [ topos.(6).spec; topos.(7).spec ] in
      Layers.lint_sample small;
      Layers.campaign_sample small;
      Layers.metrics ()
    end
  in
  (!bad = [], Array.length lines * n_rounds, 0, metrics)
