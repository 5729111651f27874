(* The traced run: each operation split into the public layer calls it is
   made of, every call timed from outside.  Three groups — topology/lint,
   campaign, serve — one per workload.  A traced run reports every
   group: its own operations feed its own group, and a small sample of
   its inputs is pushed through the other two groups so that every
   per-layer figure is measured in every traced run. *)

open Util.Spans

let flavour = Lid.Protocol.Optimized
let parse text = Topology.Spec.parse_exn ~allow_direct:true text

(* ------------------------------------------------------------------ *)
(* Topology, lint and compose                                           *)

type lint_output = { lint : string; compose : string; gate_proved : bool option }

(* [lidtool lint] + [lidtool verify --compose] with [Checks.run ~gate:true]
   split into [Checks.run ~gate:false], RTL elaboration and the stop-path
   proof; classify, deadlock, elastic and a warm compose are extra calls
   timing the layers [Checks.run] and the memo hide. *)
let lint_split text =
  let net = span "spec.parse" (fun () -> parse text) in
  ignore
    (span "classify" (fun () ->
         alloc "classify.alloc" (fun () -> Topology.Classify.classify net)));
  ignore (span "deadlock" (fun () -> Topology.Deadlock.static_verdict net));
  ignore
    (span "elastic" (fun () ->
         try Some (Topology.Elastic.min_cycle_ratio (Topology.Elastic.of_network net))
         with Topology.Elastic.Zero_latency_cycle _ -> None));
  let report =
    span "checks" (fun () -> Lint.Checks.run ~flavour ~data_width:16 ~gate:false net)
  in
  let circ =
    span "rtl_net" (fun () -> Topology.Rtl_net.of_network ~flavour ~data_width:16 net)
  in
  let sp = span "stop_path" (fun () -> Lint.Stop_path.analyze net circ) in
  let lint = span "lint.json" (fun () -> Lint.Checks.to_json report) in
  Verify.Contract.memo_clear ();
  let net = span "spec.parse" (fun () -> parse text) in
  let cold = span "compose.cold" (fun () -> Lint.Compose.run ~flavour net) in
  add "contract.discharges" (float_of_int (fst (Verify.Contract.memo_stats ())));
  ignore (span "compose.warm" (fun () -> Lint.Compose.run ~flavour net));
  let compose = span "lint.json" (fun () -> Lint.Compose.to_json cold) in
  { lint; compose; gate_proved = Some sp.proved }

(* ------------------------------------------------------------------ *)
(* Campaigns                                                            *)

(* Per-fault cost of each classification path on the first lane batch
   of a campaign: cone-incremental, flat packed, and the lane screen. *)
let classification_paths (config : Fault.Campaign.config) net =
  let faults = Fault.Campaign.faults_of_config config net in
  let lanes = Skeleton.Packed_lanes.max_lanes in
  let sample = List.filteri (fun i _ -> i < lanes - 1) faults in
  let k = List.length sample in
  let baseline =
    span "fault.baseline" (fun () ->
        Fault.Classify.baseline ~cycles:config.cycles ~flavour net)
  in
  let recording =
    span "fault.record" (fun () ->
        alloc "fault.record_mb" (fun () ->
            Fault.Classify.record baseline
              ~window_starts:(List.map (fun (f : Fault.Model.t) -> f.cycle) sample)))
  in
  (match recording with
  | Some r ->
      let (), dt =
        Util.time (fun () ->
            List.iter (fun f -> ignore (Fault.Classify.classify_incr baseline r f)) sample)
      in
      add "fault.incr" dt ~calls:k
  | None -> ());
  let (), dt =
    Util.time (fun () ->
        List.iter (fun f -> ignore (Fault.Classify.classify_fast baseline f)) sample)
  in
  add "fault.fast" dt ~calls:k;
  let replay = Fault.Classify.replay baseline in
  let _, dt =
    Util.time (fun () ->
        Fault.Campaign.classify_lane_batch baseline replay config net ~lanes sample)
  in
  add "lanes.batch" dt ~calls:k

(* The packed engine's layers on the campaign's network, the
   classification paths when [probe], then the whole campaign exactly as
   [lidtool inject --json -j 1] runs it ([lanes] as [--lanes]). *)
let campaign_split ?lanes ~probe (config : Fault.Campaign.config) text =
  let net = span "spec.parse" (fun () -> Topology.Spec.parse_exn text) in
  let engine = span "packed.compile" (fun () -> Skeleton.Packed.create ~flavour net) in
  let (), dt = Util.time (fun () -> Skeleton.Packed.run engine ~cycles:config.cycles) in
  add "packed.run" dt ~calls:config.cycles;
  Skeleton.Packed.reset engine;
  ignore (span "measure" (fun () -> Skeleton.Measure.analyze_packed engine));
  if probe then classification_paths config net;
  let lanes_used = ref 1 in
  let result =
    span "driver" (fun () ->
        Campaign.Fault_driver.run ~jobs:1 ?lanes
          ~on_lanes:(fun n _ -> lanes_used := n)
          config net)
  in
  let json =
    span "campaign.json" (fun () ->
        Fault.Campaign.json ~jobs:1 ~lanes_used:!lanes_used result)
  in
  let masked =
    List.length
      (List.filter
         (fun (r : Fault.Classify.report) -> r.outcome = Fault.Classify.Masked)
         result.reports)
  in
  add "fault.masked" (float_of_int masked) ~calls:(List.length result.reports);
  (net, result, json)

(* ------------------------------------------------------------------ *)
(* Serve                                                                *)

let analysis_name (r : Serve.Request.t) =
  match r.analysis with
  | Serve.Request.Lint _ -> "lint"
  | Serve.Request.Verify -> "verify"
  | Serve.Request.Throughput _ -> "throughput"
  | Serve.Request.Equalize -> "equalize"
  | Serve.Request.Inject _ -> "inject"

(* One request through the daemon's own stages, outside the daemon:
   parse, decode, prepare, canonicalize and — when [compute] — the
   analysis, with an edited request resuming a freshly compiled engine
   of its unedited base the way a pool hit does. *)
let serve_split ~compute line =
  let req =
    span "request.parse" (fun () ->
        match Lidjson.parse line with
        | Ok j -> Serve.Request.of_json j
        | Error m -> Error m)
  in
  match req with
  | Error _ -> ()
  | Ok req -> (
      match span "handler.prepare" (fun () -> Serve.Handler.prepare req) with
      | Error _ -> ()
      | Ok p ->
          ignore (span "topo_hash.canonical" (fun () -> Serve.Topo_hash.canonical p.net));
          if compute then begin
            let engine =
              match p.base_canonical with
              | Some _ when Serve.Handler.wants_engine p ->
                  let base = Topology.Spec.parse_exn req.spec in
                  let e = Skeleton.Packed.create ~flavour:req.flavour base in
                  Some
                    (Serve.Handler.Pooled
                       (span "packed.resume" (fun () ->
                            Skeleton.Packed.resume e ~edits:p.edits)))
              | _ -> None
            in
            ignore
              (span ("handler." ^ analysis_name req) (fun () ->
                   Serve.Handler.compute ?engine p))
          end)

let daemon_batch d items =
  let h0 = Serve.Daemon.result_cache_hits d and m0 = Serve.Daemon.result_cache_misses d in
  let responses, _ = span "daemon.batch" (fun () -> Serve.Daemon.process d items) in
  let line = span "serve.json" (fun () -> Lidjson.to_string (Lidjson.List responses)) in
  let hits = Serve.Daemon.result_cache_hits d - h0
  and misses = Serve.Daemon.result_cache_misses d - m0 in
  add "cache.hit" (float_of_int hits) ~calls:(hits + misses);
  (responses, line)

(* ------------------------------------------------------------------ *)
(* Cross-group sample                                                   *)

(* Every analysis on [text], plus a throughput request carrying a
   latency edit, so that [Packed.resume] runs; equalize only when the
   net is acyclic, since the daemon refuses cyclic ones. *)
let request_lines text =
  let net = parse text in
  let req analysis extra =
    Lidjson.to_string
      (Lidjson.Obj
         ([ ("spec", Lidjson.String text); ("analysis", Lidjson.String analysis) ]
         @ extra))
  in
  let edit =
    match Topology.Network.edges net with
    | [] -> []
    | (e : Topology.Network.edge) :: _ ->
        let label =
          Printf.sprintf "%s.%d->%s.%d"
            (Topology.Network.node net e.src.node).name e.src.port
            (Topology.Network.node net e.dst.node).name e.dst.port
        in
        [
          req "throughput"
            [
              ( "edits",
                Lidjson.List
                  [
                    Lidjson.Obj
                      [
                        ("channel", Lidjson.String label);
                        ("latency", Lidjson.String "fixed:2");
                      ];
                  ] );
            ];
        ]
  in
  [
    req "lint" [];
    req "verify" [];
    req "throughput" [];
    req "inject" [ ("cycles", Lidjson.Int 128); ("sites", Lidjson.Int 1) ];
  ]
  @ edit
  @ if (Topology.Classify.classify net).cyclic then [] else [ req "equalize" [] ]

(* An acyclic fabric, so that equalize is measured whatever the other
   sample inputs are. *)
let acyclic_sample =
  Topology.Spec.print
    (Topology.Generators.reconvergent ~r_short:1 ~r_long_head:1 ~r_long_tail:1 ())

let serve_sample texts =
  let d = Serve.Daemon.create ~jobs:1 () in
  List.iter
    (fun text ->
      let lines = request_lines text in
      List.iter (serve_split ~compute:true) lines;
      let items = List.map Lidjson.parse_exn lines in
      (* the same batch twice: the second is answered from the memo *)
      ignore (daemon_batch d items);
      ignore (daemon_batch d items))
    (texts @ [ acyclic_sample ])

let lint_sample texts = List.iter (fun t -> ignore (lint_split t)) texts

let campaign_sample texts =
  List.iter
    (fun text ->
      let config =
        {
          Fault.Campaign.default_config with
          cycles = 256;
          max_sites_per_kind = 1;
        }
      in
      ignore (campaign_split ~probe:true config text))
    texts

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)

let metrics () =
  let ms name = Util.metric (name ^ "_ms") "ms" (1000.0 *. mean name) in
  let ms' label name = Util.metric label "ms" (1000.0 *. mean name) in
  let us label name = Util.metric label "us" (1e6 *. mean name) in
  let share label name = Util.metric label "ratio" (mean name) in
  [
    ms "spec.parse";
    ms' "classify.ms" "classify";
    Util.metric "classify.alloc_mb" "MB" (mean "classify.alloc");
    ms' "deadlock.ms" "deadlock";
    ms' "elastic.ms" "elastic";
    ms' "checks.ms" "checks";
    ms' "rtl_net.ms" "rtl_net";
    ms' "stop_path.ms" "stop_path";
    ms "compose.cold";
    ms "compose.warm";
    Util.metric "contract.discharges" "count" (mean "contract.discharges");
    ms "lint.json";
    ms "packed.compile";
    Util.metric "packed.cycles_per_s" "1/s" (1.0 /. mean "packed.run");
    ms' "measure.ms" "measure";
    ms "fault.baseline";
    ms "fault.record";
    Util.metric "fault.record_mb" "MB" (mean "fault.record_mb");
    us "fault.incr_us" "fault.incr";
    us "fault.fast_us" "fault.fast";
    us "lanes.batch_us" "lanes.batch";
    share "fault.masked_share" "fault.masked";
    ms' "driver.ms" "driver";
    ms "campaign.json";
    us "request.parse_us" "request.parse";
    us "handler.prepare_us" "handler.prepare";
    us "topo_hash.canonical_us" "topo_hash.canonical";
    ms "handler.lint";
    ms "handler.verify";
    ms "handler.throughput";
    ms "handler.inject";
    ms "handler.equalize";
    ms "packed.resume";
    share "cache.hit_share" "cache.hit";
    ms "daemon.batch";
    us "serve.json_us" "serve.json";
  ]
