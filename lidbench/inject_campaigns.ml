(* inject-campaigns: one operation is one [lidtool inject --json -j 1]
   campaign — spec parse, [Campaign.Fault_driver.run] with the CLI
   defaults (lanes and cone on) and the campaign JSON.  Packed stepping,
   recording and fault classification do the work; the topology
   analyses do none. *)

module G = Topology.Generators
module Net = Topology.Network
open Lid.Relay_station

type campaign = {
  family : string;
  text : string;
  config : Fault.Campaign.config;
}

let jitter ~bound ~seed = Some (Lid.Latency.Jitter { base = 0; bound; seed })

(* Every family takes a size stratum [z] in [0, strata): the size
   profile of a round is the same for every seed, the networks, fault
   sites and jitter schedules are not. *)
let strata = 10

(* A chain whose first two channels are variable-latency and spanned by
   go-back-N stations, fed at 1/3 duty. *)
let retx_chain ~z rng =
  let net =
    G.chain ~n_shells:(4 + z)
      ~source_pattern:(Topology.Pattern.periodic ~period:3 ~active:1 ())
      ()
  in
  let dynamize net edge =
    let bound = 1 + Random.State.int rng 2 in
    let net = Net.with_stations net edge [ Retx { depth = 4 + bound + Random.State.int rng 3 } ] in
    Net.with_latency net edge (jitter ~bound ~seed:(Random.State.int rng 100))
  in
  dynamize (dynamize net 0) 1

(* A random SoC with a jitter profile on every channel, as
   [lidtool inject --jitter B] overlays it. *)
let jittered_soc ~z rng =
  let net =
    G.random_soc ~rng ~n_shells:(6 + (2 * z) + Random.State.int rng 2) ~max_stations:2 ()
  in
  let profile = jitter ~bound:(1 + Random.State.int rng 2) ~seed:(Random.State.int rng 100) in
  List.fold_left
    (fun acc (e : Net.edge) -> Net.with_latency acc e.id profile)
    net (Net.edges net)

let mesh_sizes = [| (2, 2); (2, 3); (3, 2); (3, 3); (2, 4); (4, 2); (3, 4); (4, 3); (4, 4); (4, 5) |]

let families =
  [
    ("retx-jitter-chain", retx_chain);
    ("jittered-soc", jittered_soc);
    ( "mesh",
      fun ~z _ ->
        let n, m = mesh_sizes.(z) in
        G.mesh ~n ~m () );
    ( "fig1",
      fun ~z _ ->
        G.fig1 ~r_direct:(1 + (z mod 2)) ~r_to_b:(1 + (z / 2 mod 2)) ~r_from_b:(1 + (z / 4 mod 2)) () );
    ("fig2", fun ~z _ -> G.fig2 ~stations_ab:(1 + (z mod 3)) ~stations_ba:(1 + (z / 3 mod 3)) ());
  ]

let copies = 2
let per_round = copies * 2 * strata * List.length families

(* One round: every family at every size stratum, [copies] times with a
   short (about 256-cycle) and [copies] times with a long (at least
   1024-cycle) horizon, in a seeded order. *)
let generate rng =
  let nf = List.length families in
  let campaigns =
    List.init per_round (fun i ->
        let family, make = List.nth families (i mod nf) in
        let z = i / nf mod strata and long = i / (nf * strata) mod 2 = 1 in
        let cycles =
          if long then 1024 + Random.State.int rng 257 else 224 + Random.State.int rng 65
        in
        let net = make ~z rng in
        {
          family;
          text = Topology.Spec.print net;
          config =
            {
              Fault.Campaign.seed = Random.State.int rng 10_000;
              kinds = Fault.Model.all_kinds;
              cycles;
              flavour = Layers.flavour;
              max_sites_per_kind = 2 + (z mod 3);
              injections_per_site = 1 + (z / 5);
            };
        })
  in
  Util.shuffle rng campaigns

(* ------------------------------------------------------------------ *)
(* The operation                                                        *)

let op ~lanes c =
  let net = Topology.Spec.parse_exn c.text in
  let lanes_used = ref 1 in
  let result =
    Campaign.Fault_driver.run ~jobs:1 ?lanes ~on_lanes:(fun n _ -> lanes_used := n) c.config net
  in
  (net, result, Fault.Campaign.json ~jobs:1 ~lanes_used:!lanes_used result)

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)

(* The campaign's own fault list and tallies, and one seeded injection
   classified again by the serial oracle on [Skeleton.Engine]. *)
let check rng c ((net : Net.t), (result : Fault.Campaign.result), json) =
  let ( let* ) = Result.bind in
  let faults = Fault.Campaign.faults_of_config c.config net in
  let* json = Lidjson.parse json in
  let* () = Oracle.check_campaign ~faults result json in
  match result.reports with
  | [] -> Ok ()
  | reports ->
      let got = List.nth reports (Random.State.int rng (List.length reports)) in
      let baseline =
        Fault.Classify.baseline ~cycles:c.config.cycles ~flavour:c.config.flavour net
      in
      Oracle.check_injection ~oracle:(Fault.Classify.classify baseline got.fault) got

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

let run ~lanes ~seed ~seconds ~trace =
  let rng () = Random.State.make [| seed; 0x1a7 |] in
  let setup = Util.setup_time ~reps:5 ~k:240 (fun () -> generate (rng ())) in
  let campaigns = Array.of_list (generate (rng ())) in
  let n = Array.length campaigns in
  let first = Array.make n None in
  let same = ref true and work = ref 0 and op_ms = ref [] in
  (* the traced run times the classification paths on every fourth
     campaign: on all of them it would take four times as long *)
  let opf i c =
    if trace then Layers.campaign_split ?lanes ~probe:(i mod 4 = 0) c.config c.text
    else op ~lanes c
  in
  (* A campaign that raises in [Fault.Classify.align] (it reads past
     the end of the reference stream when a faulted sink delivers two or
     more tokens beyond it; see the README) is left out of this and
     every later round, and the time it took is not counted.  Whether a
     seed draws one is chance, so it cannot be counted as failed. *)
  let left_out = Array.make n false and lost = ref 0.0 in
  let n_rounds, elapsed =
    Util.rounds ~seconds ~nominal:17.0 (fun _ ->
        Array.iteri
          (fun i c ->
            if not left_out.(i) then begin
              (* each campaign stands for a fresh [lidtool inject] process *)
              Gc.compact ();
              let t0 = Util.now () in
              match opf i c with
              | exception Invalid_argument why ->
                  left_out.(i) <- true;
                  lost := !lost +. (Util.now () -. t0);
                  Util.log "inject-campaigns: %s campaign left out: %s" c.family why
              | (_, result, json) as o -> (
                  op_ms := ((Util.now () -. t0) *. 1000.0) :: !op_ms;
                  work := !work + List.length result.Fault.Campaign.reports;
                  match first.(i) with
                  | None -> first.(i) <- Some o
                  | Some (_, _, json0) -> if json0 <> json then same := false)
            end)
          campaigns)
  in
  let elapsed = elapsed -. !lost in
  let kept = List.filter (fun i -> not left_out.(i)) (List.init n Fun.id) in
  let attempted = List.length kept * n_rounds in
  Util.log "inject-campaigns: %d operations in %.2f s" attempted elapsed;
  let check_rng = Random.State.make [| seed; 0xc4ec |] in
  (* one seeded campaign run again, whatever the number of rounds: it
     must print what it printed in the timed phase *)
  (let i = List.nth kept (Random.State.int check_rng (List.length kept)) in
   Gc.compact ();
   let _, _, json = opf i campaigns.(i) in
   match first.(i) with
   | Some (_, _, json0) when json0 = json -> ()
   | _ -> same := false);
  let correct = ref !same in
  if not !same then Util.log "inject-campaigns: outputs differ between repetitions";
  Array.iteri
    (fun i c ->
      match first.(i) with
      | None -> ()
      | Some o -> (
          match check check_rng c o with
          | Ok () -> ()
          | Error why ->
              correct := false;
              Util.log "inject-campaigns: %s: %s" c.family why))
    campaigns;
  let metrics =
    if not trace then
      Util.end_to_end ~setup ~work:!work ~elapsed ~op_ms:!op_ms
    else begin
      let small =
        List.map (fun c -> c.text)
          (List.filter (fun c -> c.family = "fig1") (Array.to_list campaigns))
      in
      let small = List.filteri (fun i _ -> i < 2) small in
      Layers.lint_sample small;
      Layers.serve_sample small;
      Layers.metrics ()
    end
  in
  (!correct, attempted, 0, metrics)
