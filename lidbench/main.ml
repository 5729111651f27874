(* lidbench: drives lidtool's library in-process on one seeded workload
   and prints one JSON result line.

   lidbench --workload NAME --seed N --seconds S --trace 0|1
   lidbench --ladder 'mesh 64 64'    one lint + verify, time and peak *)

(* One [lidtool lint] (gate on) and one [lidtool verify --compose] of a
   generated fabric, as a fresh process would run them: the reference
   ladder of the benchmark's README. *)
let ladder args =
  let text = "generate " ^ args in
  let lint_s =
    snd
      (Util.time (fun () ->
           Lint.Checks.to_json (Lint.Checks.run ~data_width:16 ~gate:true (Layers.parse text))))
  in
  let lint_peak = Util.peak_rss_mb () in
  let verify_s =
    snd (Util.time (fun () -> Lint.Compose.to_json (Lint.Compose.run (Layers.parse text))))
  in
  Printf.printf
    "{\"fabric\": %s, \"lint_s\": %.3f, \"lint_peak_mb\": %.1f, \"verify_s\": %.3f, \"peak_mb\": %.1f}\n"
    (Lidjson.quote args) lint_s lint_peak verify_s (Util.peak_rss_mb ())

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
  and lanes = ref 0 and ladder_args = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME lint-fabrics | inject-campaigns | serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (1) or end-to-end (0) metrics");
      ( "--lanes",
        Arg.Set_int lanes,
        "N inject-campaigns lane width (default: the CLI's; 1 = flat path)" );
      ("--ladder", Arg.Set_string ladder_args, "ARGS lint + verify one generated fabric");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lidbench --workload NAME --seed N --seconds S --trace 0|1";
  if !ladder_args <> "" then begin
    ladder !ladder_args;
    exit 0
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let run =
    match !workload with
    | "lint-fabrics" -> Lint_fabrics.run
    | "inject-campaigns" ->
        let lanes = if !lanes > 0 then Some !lanes else None in
        Inject_campaigns.run ~lanes
    | "serve-mix" -> Serve_mix.run
    | w ->
        Printf.eprintf "lidbench: unknown workload %S\n" w;
        exit 2
  in
  let correct, attempted, failed, metrics = run ~seed ~seconds ~trace in
  Util.print_result ~correct ~attempted ~failed metrics
