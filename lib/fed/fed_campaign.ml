module Colour = Sep_model.Colour
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Abstract_regime = Sep_core.Abstract_regime
module Par = Sep_par.Par
module Fault_plan = Sep_robust.Fault_plan
module Campaign = Sep_robust.Campaign
module J = Sep_util.Json

type case = {
  fc_plan : Fault_plan.t;
  fc_targets : Colour.t list;
  fc_outcome : Campaign.outcome;
  fc_victim_perturbed : bool;
  fc_detections : int;
  fc_recoveries : int;
  fc_frame_rejects : int;
  fc_node_events : int;
  fc_deep_checks : int;
  fc_first_violation : (int * int) option;
}

type report = {
  fr_label : string;
  fr_seed : int;
  fr_steps : int;
  fr_cases : case list;
}

(* -- Target sets ------------------------------------------------------------ *)

(* A node-level fault targets a SET of colours, computed from the
   placement and the channel graph. Unlike the single-kernel campaign —
   whose scenarios run with every channel cut, so nothing a fault
   corrupts can travel — the federation's channels actually DELIVER,
   and a corrupted word legitimately flows to whoever the configuration
   says may hear from the victim. Rushby's property is channel control,
   not silence: so the allowed-perturbation set of a data-corrupting
   fault is the victim's downstream closure over declared channels, and
   a violation is divergence of any colour the faulted domain has NO
   declared path to.

   Delay-only faults stay un-closed: a crashed shard can perturb what it
   hosts (its downstream hearers see the same words later — the
   output-commit checkpoints guarantee replay changes nothing), and a
   severed wire targets NOBODY, because the reliable links owe delay-only
   semantics outright. Forged frames destroy words, so tampering closes
   over the wire receiver's downstream. *)
let closure cfg seeds =
  let rec go acc = function
    | [] -> acc
    | c :: rest ->
      let next =
        List.filter_map
          (fun ch ->
            if
              Colour.equal ch.Config.sender c
              && not (List.exists (Colour.equal ch.Config.receiver) acc)
            then Some ch.Config.receiver
            else None)
          cfg.Config.channels
      in
      go (next @ acc) (next @ rest)
  in
  go seeds seeds

let targets_of spec (plan : Fault_plan.t) =
  let nshards = Fed.nshards_of spec and nlinks = Fed.nlinks_of spec in
  let cfg = spec.Fed.fs_cfg in
  let of_fault f =
    match (f : Fault_plan.fault) with
    | Shard_crash { shard } -> Fed.hosted spec (shard mod nshards)
    | Link_partition _ -> []
    | Frame_tamper { link } ->
      closure cfg (Option.to_list (Fed.wire_receiver spec (link mod nlinks)))
    | f -> closure cfg (Option.to_list (Fault_plan.target cfg f))
  in
  List.sort_uniq Colour.compare (List.concat_map (fun (_, f) -> of_fault f) plan.Fault_plan.faults)

(* -- Classification ---------------------------------------------------------- *)

(* The federation's "did the system notice" evidence: kernel-level
   corruption detections, checksum-rejected frames, and the supervisor
   seeing a node down or quarantined. Injection events (Node_crashed,
   Link_down, Link_tampered) and routine heals are not detections. *)
let noticed (ob : Fed.observation) =
  ob.Fed.fob_detections <> []
  || ob.Fed.fob_frame_rejects > 0
  || List.exists
       (fun (_, e) ->
         match e with
         | Fed.Node_down_detected _ | Fed.Node_quarantined _ | Fed.Frame_rejected _ -> true
         | _ -> false)
       ob.Fed.fob_events

let recovered (ob : Fed.observation) =
  ob.Fed.fob_recoveries <> []
  || List.exists
       (fun (_, e) ->
         match e with Fed.Node_failover _ | Fed.Node_rejoined _ -> true | _ -> false)
       ob.Fed.fob_events

let classify t spec ~reference ~faulty (plan : Fault_plan.t) =
  let targets = targets_of spec plan in
  let targeted c = List.exists (Colour.equal c) targets in
  let colours = Config.colours spec.Fed.fs_cfg in
  let diverged =
    Campaign.colour_diverged ~owner:(Fed.device_owner_colour t) reference.Fed.fob_outputs
      faulty.Fed.fob_outputs
  in
  let perturbed c =
    diverged c || List.assoc c faulty.Fed.fob_status <> List.assoc c reference.Fed.fob_status
  in
  let victim_perturbed = List.exists (fun c -> targeted c && perturbed c) colours in
  let outcome =
    Campaign.decide
      ~violating:(List.exists (fun c -> (not (targeted c)) && diverged c) colours)
      ~recovered:(recovered faulty)
      ~parked_at_end:(List.exists (fun (_, s) -> s = Abstract_regime.Parked) faulty.Fed.fob_status)
      ~noticed:(noticed faulty)
  in
  {
    fc_plan = plan;
    fc_targets = targets;
    fc_outcome = outcome;
    fc_victim_perturbed = victim_perturbed;
    fc_detections = List.length faulty.Fed.fob_detections;
    fc_recoveries = List.length faulty.Fed.fob_recoveries;
    fc_frame_rejects = faulty.Fed.fob_frame_rejects;
    fc_node_events = List.length faulty.Fed.fob_events;
    fc_deep_checks = faulty.Fed.fob_deep_checks;
    fc_first_violation = faulty.Fed.fob_first_violation;
  }

(* -- Plans ------------------------------------------------------------------ *)

(* Directed plans guarantee chaos coverage whatever the seed draws: one
   crash per shard, one partition and one tamper per physical wire, all
   striking at steps/3. *)
let directed spec ~steps =
  let at = max 1 (steps / 3) in
  let shards = List.init (Fed.nshards_of spec) Fun.id in
  let wires = List.init (Fed.nlinks_of spec) Fun.id in
  List.map
    (fun s ->
      {
        Fault_plan.label = Fmt.str "crash-node%d@%d" s at;
        faults = [ (at, Fault_plan.Shard_crash { shard = s }) ];
      })
    shards
  @ List.map
      (fun w ->
        {
          Fault_plan.label = Fmt.str "partition-wire%d@%d" w at;
          faults = [ (at, Fault_plan.Link_partition { link = w; window = 10 + w }) ];
        })
      wires
  @ List.map
      (fun w ->
        {
          Fault_plan.label = Fmt.str "tamper-wire%d@%d" w at;
          faults = [ (at, Fault_plan.Frame_tamper { link = w }) ];
        })
      wires

(* The directed plans, then [count] seeded single-fault plans drawn over
   the widened node space, then [count/2] two-fault stress plans. *)
let plans spec ~seed ~steps ~count =
  let nodes = Fed.node_space spec in
  directed spec ~steps
  @ Fault_plan.generate ~nodes ~seed ~steps ~count spec.Fed.fs_cfg
  @ Fault_plan.generate_multi ~nodes ~seed:(seed + 1) ~steps ~count:(count / 2)
      ~faults_per_plan:2 spec.Fed.fs_cfg

(* -- The campaign ----------------------------------------------------------- *)

let run ?jobs ?(monitor = true) ?policy ~seed ~steps ~count spec =
  let reference =
    let t = Fed.build ?policy spec in
    Fed.run t ~steps;
    Fed.finish t
  in
  let all_plans = plans spec ~seed ~steps ~count in
  let fr_cases =
    Par.map ?jobs
      (fun plan ->
        let t = Fed.build ?policy ~plan ~monitor spec in
        Fed.run t ~steps;
        let faulty = Fed.finish t in
        classify t spec ~reference ~faulty plan)
      all_plans
  in
  { fr_label = spec.Fed.fs_label; fr_seed = seed; fr_steps = steps; fr_cases }

let outcomes r = List.map (fun c -> c.fc_outcome) r.fr_cases
let holds r = Campaign.violation_free (outcomes r)
let monitor_clean r = List.for_all (fun c -> c.fc_first_violation = None) r.fr_cases
let totals r = Campaign.tally (outcomes r)

let case_to_json r c =
  J.Obj
    [
      ("kind", J.String "fed-case");
      ("scenario", J.String r.fr_label);
      ("seed", J.Int r.fr_seed);
      ("steps", J.Int r.fr_steps);
      ("plan", Fault_plan.to_json c.fc_plan);
      ("targets", J.List (List.map (fun t -> J.String (Colour.name t)) c.fc_targets));
      ("outcome", J.String (Fmt.str "%a" Campaign.pp_outcome c.fc_outcome));
      ("victim_perturbed", J.Bool c.fc_victim_perturbed);
      ("detections", J.Int c.fc_detections);
      ("recoveries", J.Int c.fc_recoveries);
      ("frame_rejects", J.Int c.fc_frame_rejects);
      ("node_events", J.Int c.fc_node_events);
      ("deep_checks", J.Int c.fc_deep_checks);
      ( "first_violation",
        match c.fc_first_violation with
        | None -> J.Null
        | Some (shard, step) -> J.Obj [ ("shard", J.Int shard); ("step", J.Int step) ] );
    ]

let summary_json r =
  let m, d, rc, v = totals r in
  J.Obj
    [
      ("kind", J.String "fed-campaign-summary");
      ("scenario", J.String r.fr_label);
      ("seed", J.Int r.fr_seed);
      ("steps", J.Int r.fr_steps);
      ("cases", J.Int (List.length r.fr_cases));
      ("masked", J.Int m);
      ("detected_safe", J.Int d);
      ("recovered_safe", J.Int rc);
      ("violating", J.Int v);
      ("holds", J.Bool (holds r));
      ("monitor_clean", J.Bool (monitor_clean r));
    ]

let report_to_jsonl r = Campaign.jsonl (List.map (case_to_json r) r.fr_cases @ [ summary_json r ])
