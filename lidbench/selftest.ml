(* Each output check of the benchmark must accept the program's answer
   and reject a deliberately wrong one: a prediction off by one token,
   a flipped campaign outcome, an altered serve payload, ...  Exits 1
   if a check lets a wrong answer through (or refuses a right one). *)

module J = Lidjson

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let accepts r = Result.is_ok r
let rejects r = Result.is_error r

(* [j] with the member at [path] replaced by [f] of its value. *)
let rec update path f j =
  match (path, j) with
  | [], v -> f v
  | k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> if k' = k then (k', update rest f v) else (k', v)) kvs)
  | _, v -> v

let bump = function J.Int n -> J.Int (n + 1) | v -> v
let lint_json net = J.parse_exn (Lint.Checks.to_json (Lint.Checks.run ~data_width:16 ~gate:true net))
let compose_json net = J.parse_exn (Lint.Compose.to_json (Lint.Compose.run net))

let lint_fabrics () =
  let g = Topology.Generators.torus ~n:3 ~m:4 () in
  let lint = lint_json g in
  let expected = Oracle.torus_bound ~n:3 ~m:4 ~per_hop:1 in
  expect "prediction: torus closed form accepted" (accepts (Oracle.check_prediction ~expected lint));
  expect "prediction: one token more rejected"
    (rejects
       (Oracle.check_prediction ~expected (update [ "predicted_throughput"; "tokens" ] bump lint)));
  let fig1 = Topology.Generators.reconvergent ~r_short:1 ~r_long_head:1 ~r_long_tail:1 () in
  let expected = Oracle.reconvergent_bound ~r_short:1 ~r_long:2 in
  expect "prediction: (m-i)/m = 4/5 on Fig. 1" (expected = (4, 5));
  expect "prediction: reconvergent closed form accepted"
    (accepts (Oracle.check_prediction ~expected (lint_json fig1)));
  expect "clean: no error, gate proved" (accepts (Oracle.check_clean lint));
  expect "clean: unproved gate rejected"
    (rejects (Oracle.check_clean (update [ "stop_path"; "proved" ] (fun _ -> J.Bool false) lint)));
  expect "clean: an error diagnostic rejected"
    (rejects
       (Oracle.check_clean
          (update [ "diagnostics" ]
             (function
               | J.List l -> J.List (J.Obj [ ("code", J.String "LID001"); ("severity", J.String "error") ] :: l)
               | v -> v)
             lint)));
  let compose = compose_json g in
  expect "deadlock: verdict matched by the skeleton"
    (accepts (Oracle.check_deadlock_free ~every_shell_fires:true compose));
  expect "deadlock: verdict against a wedged skeleton rejected"
    (rejects (Oracle.check_deadlock_free ~every_shell_fires:false compose));
  expect "deadlock: flipped verdict rejected"
    (rejects
       (Oracle.check_deadlock_free ~every_shell_fires:true
          (update [ "deadlock_free" ] (fun _ -> J.Bool false) compose)));
  expect "loops: 2x2 torus has 6 simple cycles" (Oracle.torus_cycles ~n:2 ~m:2 ~limit:100 = 6);
  let half = Topology.Generators.torus ~stations:[ Lid.Relay_station.Half ] ~n:3 ~m:3 () in
  let lint = lint_json half in
  let loops = Oracle.torus_cycles ~n:3 ~m:3 ~limit:10_000 in
  expect "loops: complete LID007 list accepted"
    (Oracle.check_lid007 ~half_loops:loops lint = Ok `Complete);
  expect "loops: one loop missing is a truncation"
    (Oracle.check_lid007 ~half_loops:(loops + 1) lint = Ok `Truncated);
  expect "loops: a list that says it is truncated is not"
    (Oracle.check_lid007 ~half_loops:(loops + 1)
       (update [ "summary" ] (function J.Obj kvs -> J.Obj (("truncated", J.Bool true) :: kvs) | v -> v) lint)
    = Ok `Complete);
  expect "loops: a loop too many rejected" (rejects (Oracle.check_lid007 ~half_loops:(loops - 1) lint));
  (* the composed check the workload runs, on a real fabric *)
  let f =
    List.hd
      (List.sort
         (fun (a : Lint_fabrics.fabric) b -> compare a.channels b.channels)
         (Lint_fabrics.generate (Random.State.make [| 5 |])))
  in
  let o = Lint_fabrics.op f.text in
  expect "lint-fabrics: program output accepted" (Lint_fabrics.check f o = Ok `Ok);
  let wrong =
    J.to_string (update [ "predicted_throughput"; "latency" ] bump (J.parse_exn o.lint))
  in
  expect "lint-fabrics: prediction off by one rejected"
    (rejects (Lint_fabrics.check f { o with lint = wrong }))

let inject_campaigns () =
  let rng = Random.State.make [| 3 |] in
  let c = List.hd (Inject_campaigns.generate rng) in
  let ((net, result, json) as o) = Inject_campaigns.op ~lanes:None c in
  expect "campaign: program output accepted" (accepts (Inject_campaigns.check rng c o));
  let flip (r : Fault.Classify.report) =
    {
      r with
      outcome =
        (if r.outcome = Fault.Classify.Masked then Fault.Classify.Data_corrupting
         else Fault.Classify.Masked);
    }
  in
  let flipped =
    { result with reports = List.mapi (fun i r -> if i = 0 then flip r else r) result.reports }
  in
  let faults = Fault.Campaign.faults_of_config c.config net in
  let baseline = Fault.Classify.baseline ~cycles:c.config.cycles ~flavour:c.config.flavour net in
  let got = List.hd flipped.reports in
  expect "campaign: flipped outcome rejected by the serial oracle"
    (rejects (Oracle.check_injection ~oracle:(Fault.Classify.classify baseline got.fault) got));
  let dropped = { result with reports = List.tl result.reports } in
  expect "campaign: a missing report rejected"
    (rejects (Oracle.check_campaign ~faults dropped (J.parse_exn json)));
  let tally =
    update [ "tally" ]
      (function
        | J.List (k :: rest) -> J.List (update [ "outcomes"; "masked" ] bump k :: rest)
        | v -> v)
      (J.parse_exn json)
  in
  expect "campaign: a tally off by one rejected" (rejects (Oracle.check_campaign ~faults result tally))

let serve_mix () =
  let _topos, reqs, _lines, daemon = Serve_mix.setup ~avoid:(fun _ -> false) 4 in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (r : Serve_mix.request) ->
      let analysis = List.assoc "analysis" r.body in
      let kind = J.to_string analysis ^ if r.edited then " edited" else "" in
      if not (Hashtbl.mem seen kind) then begin
        Hashtbl.replace seen kind ();
        let resp =
          match Serve.Daemon.process daemon [ Serve_mix.to_json r ] with
          | [ resp ], _ -> resp
          | _ -> J.Null
        in
        expect ("serve: " ^ kind ^ " response ok") (accepts (Oracle.check_response ~id:(J.Int r.id) resp));
        expect ("serve: " ^ kind ^ " wrong id rejected")
          (rejects (Oracle.check_response ~id:(J.Int (r.id + 1)) resp));
        expect ("serve: " ^ kind ^ " equals the one-shot emitter") (accepts (Serve_mix.check_sample r resp));
        let altered =
          update [ "result" ]
            (function
              | J.Obj ((k, _) :: rest) -> J.Obj ((k, J.String "altered") :: rest)
              | v -> v)
            resp
        in
        expect ("serve: " ^ kind ^ " altered payload rejected") (rejects (Serve_mix.check_sample r altered));
        expect ("serve: " ^ kind ^ " closed form") (accepts (Serve_mix.check_closed_form r resp))
      end)
    reqs;
  let torus = J.Obj [ ("result", J.Obj [ ("system_throughput", J.Float 0.5) ]) ] in
  expect "serve: torus throughput closed form accepted" (accepts (Oracle.check_throughput ~expected:0.5 torus));
  expect "serve: throughput off the closed form rejected"
    (rejects (Oracle.check_throughput ~expected:(1.0 /. 3.0) torus));
  let not_ok = J.Obj [ ("id", J.Int 1); ("ok", J.Bool false); ("error", J.String "x") ] in
  expect "serve: ok=false rejected" (rejects (Oracle.check_response ~id:(J.Int 1) not_ok))

let () =
  lint_fabrics ();
  inject_campaigns ();
  serve_mix ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) misjudged\n" !failures;
    exit 1
  end
