module Fed = Sep_fed.Fed
module Fed_campaign = Sep_fed.Fed_campaign
module Fault_plan = Sep_robust.Fault_plan
module Campaign = Sep_robust.Campaign
module Telemetry = Sep_obs.Telemetry
module Par = Sep_par.Par
module J = Sep_util.Json

type case = {
  sc_plan : Fault_plan.t;
  sc_outcome : Campaign.outcome;
  sc_contract : Svc.contract;
  sc_spool_held : int;
  sc_retries : int;
  sc_timeouts : int;
  sc_dedup_hits : int;
  sc_shed : int;
  sc_node_events : int;
  sc_frame_rejects : int;
  sc_abandoned : int list;
  sc_first_violation : (int * int) option;
}

type report = {
  sv_name : string;
  sv_seed : int;
  sv_steps : int;
  sv_cases : case list;
}

(* -- Plans ------------------------------------------------------------------ *)

(* The coverage floor, service-shaped: a clean control case; one crash
   per replica shard; the same replica crashed three times; every replica
   crashed at once; one partition and one tamper strike per wire, on a
   sample of wires. *)
let directed dep ~steps =
  let m = dep.Svc.dp_replicas in
  let spec = Svc.spec_of dep in
  let nlinks = Fed.nlinks_of spec in
  let at = max 1 (steps / 3) in
  let gap = max 1 (steps / 4) in
  [ { Fault_plan.label = "clean"; faults = [] } ]
  @ List.init m (fun j ->
        {
          Fault_plan.label = Fmt.str "crash-replica%d@%d" j at;
          faults = [ (at, Fault_plan.Shard_crash { shard = 1 + j }) ];
        })
  @ [
      (* the same replica struck past the reboot budget: the supervisor
         must abandon it cleanly while the survivors keep serving *)
      {
        Fault_plan.label = "crash-replica0-x3";
        faults = List.init 3 (fun k -> (at + (k * gap), Fault_plan.Shard_crash { shard = 1 }));
      };
      (* every replica down at once: degraded modes must answer *)
      {
        Fault_plan.label = "crash-all-replicas";
        faults = List.init m (fun j -> (at, Fault_plan.Shard_crash { shard = 1 + j }));
      };
    ]
  @ (List.init (min nlinks 2) (fun w ->
         {
           Fault_plan.label = Fmt.str "partition-wire%d@%d" w at;
           faults = [ (at, Fault_plan.Link_partition { link = w; window = 40 + (8 * w) }) ];
         })
    @ List.init (min nlinks 2) (fun w ->
          {
            Fault_plan.label = Fmt.str "tamper-wire%d@%d" w at;
            faults =
              List.init 4 (fun k -> (at + (k * 60), Fault_plan.Frame_tamper { link = w }));
          }))

let plans dep ~seed ~steps ~soak =
  let spec = Svc.spec_of dep in
  directed dep ~steps
  @ Fault_plan.soak ~nodes:(Fed.node_space spec) ~seed ~steps ~count:soak spec.Fed.fs_cfg

(* -- Classification --------------------------------------------------------- *)

(* The federation's evidence, as Fed_campaign reads it: detections and
   checksum rejects say the system noticed; failovers and rejoins say it
   recovered. The service contract replaces the differential trace
   comparison as the violation oracle — a user can't see traces, but a
   lost or doubled effect is exactly what they would see. For the same
   reason regimes parked at the end do not demote a recovery: the
   contract, not regime status, is the service's end-state verdict. *)
let classify (r : Svc.result) tel plan =
  let ob = r.Svc.sr_fed in
  let outcome =
    Campaign.decide
      ~violating:(ob.Fed.fob_first_violation <> None || not r.Svc.sr_contract.Svc.ct_ok)
      ~recovered:(Fed_campaign.recovered ob) ~parked_at_end:false
      ~noticed:(Fed_campaign.noticed ob)
  in
  let c name =
    match Telemetry.find_counter tel name with
    | Some k -> Telemetry.counter_value k
    | None -> 0
  in
  {
    sc_plan = plan;
    sc_outcome = outcome;
    sc_contract = r.Svc.sr_contract;
    sc_spool_held = r.Svc.sr_spool_held;
    sc_retries = c "svc.retries";
    sc_timeouts = c "svc.timeouts";
    sc_dedup_hits = c "svc.dedup_hits";
    sc_shed = c "svc.shed";
    sc_node_events = List.length ob.Fed.fob_events;
    sc_frame_rejects = ob.Fed.fob_frame_rejects;
    sc_abandoned = ob.Fed.fob_abandoned_nodes;
    sc_first_violation = ob.Fed.fob_first_violation;
  }

(* -- The campaign ----------------------------------------------------------- *)

let run ?jobs ?(monitor = true) ?policy ?tuning ?(soak = 6) ~seed ~steps dep =
  let all_plans = plans dep ~seed ~steps ~soak in
  let sv_cases =
    Par.map ?jobs
      (fun plan ->
        let t = Svc.build ?policy ~plan ~monitor ?tuning ~seed dep in
        Svc.run t ~steps;
        let r = Svc.finish t in
        classify r (Svc.telemetry t) plan)
      all_plans
  in
  { sv_name = dep.Svc.dp_name; sv_seed = seed; sv_steps = steps; sv_cases }

let outcomes r = List.map (fun c -> c.sc_outcome) r.sv_cases
let holds r = Campaign.violation_free (outcomes r)
let monitor_clean r = List.for_all (fun c -> c.sc_first_violation = None) r.sv_cases
let contracts_ok r = List.for_all (fun c -> c.sc_contract.Svc.ct_ok) r.sv_cases
let totals r = Campaign.tally (outcomes r)

let case_to_json r c =
  J.Obj
    [
      ("kind", J.String "svc-case");
      ("service", J.String r.sv_name);
      ("seed", J.Int r.sv_seed);
      ("steps", J.Int r.sv_steps);
      ("plan", Fault_plan.to_json c.sc_plan);
      ("outcome", J.String (Fmt.str "%a" Campaign.pp_outcome c.sc_outcome));
      ("contract", Svc.contract_to_json c.sc_contract);
      ("spool_held", J.Int c.sc_spool_held);
      ("retries", J.Int c.sc_retries);
      ("timeouts", J.Int c.sc_timeouts);
      ("dedup_hits", J.Int c.sc_dedup_hits);
      ("shed", J.Int c.sc_shed);
      ("node_events", J.Int c.sc_node_events);
      ("frame_rejects", J.Int c.sc_frame_rejects);
      ("abandoned", J.List (List.map (fun s -> J.Int s) c.sc_abandoned));
      ( "first_violation",
        match c.sc_first_violation with
        | None -> J.Null
        | Some (shard, step) -> J.Obj [ ("shard", J.Int shard); ("step", J.Int step) ] );
    ]

let summary_json r =
  let m, d, rc, v = totals r in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 r.sv_cases in
  J.Obj
    [
      ("kind", J.String "svc-campaign-summary");
      ("service", J.String r.sv_name);
      ("seed", J.Int r.sv_seed);
      ("steps", J.Int r.sv_steps);
      ("cases", J.Int (List.length r.sv_cases));
      ("masked", J.Int m);
      ("detected_safe", J.Int d);
      ("recovered_safe", J.Int rc);
      ("violating", J.Int v);
      ("requests", J.Int (sum (fun c -> c.sc_contract.Svc.ct_requests)));
      ("committed", J.Int (sum (fun c -> c.sc_contract.Svc.ct_committed)));
      ("lost_effects", J.Int (sum (fun c -> c.sc_contract.Svc.ct_lost_effects)));
      ("duplicate_effects", J.Int (sum (fun c -> c.sc_contract.Svc.ct_duplicate_effects)));
      ("retries", J.Int (sum (fun c -> c.sc_retries)));
      ("dedup_hits", J.Int (sum (fun c -> c.sc_dedup_hits)));
      ("holds", J.Bool (holds r));
      ("monitor_clean", J.Bool (monitor_clean r));
      ("contracts_ok", J.Bool (contracts_ok r));
    ]

let report_to_jsonl r = Campaign.jsonl (List.map (case_to_json r) r.sv_cases @ [ summary_json r ])
