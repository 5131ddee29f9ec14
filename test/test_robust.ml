(* Tests for the robustness layer: fault plans, the injection campaign,
   and the kernel's fail-safe hardening (checksummed save areas, guard
   words, watchdog, kernel panic). *)

module Colour = Sep_model.Colour
module Machine = Sep_hw.Machine
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Scenarios = Sep_core.Scenarios
module Ktrace = Sep_core.Ktrace
module Abstract_regime = Sep_core.Abstract_regime
module Fault_plan = Sep_robust.Fault_plan
module Campaign = Sep_robust.Campaign
module Json = Sep_util.Json

let check = Alcotest.check

let pipeline_cfg = Scenarios.pipeline.Scenarios.cfg

(* -- Fault plans ----------------------------------------------------------- *)

let test_plans_deterministic () =
  let gen () =
    List.map
      (fun (p : Fault_plan.t) -> Json.to_string (Fault_plan.to_json p))
      (Fault_plan.generate ~seed:7 ~steps:50 ~count:20 pipeline_cfg)
  in
  check (Alcotest.list Alcotest.string) "same seed, same plans" (gen ()) (gen ());
  let other =
    List.map
      (fun (p : Fault_plan.t) -> Json.to_string (Fault_plan.to_json p))
      (Fault_plan.generate ~seed:8 ~steps:50 ~count:20 pipeline_cfg)
  in
  Alcotest.(check bool) "different seed differs" false (gen () = other)

let test_plan_targets () =
  let target f = Fault_plan.target pipeline_cfg f in
  let colour = Alcotest.testable Colour.pp Colour.equal in
  check (Alcotest.option colour) "mem flip targets its partition owner" (Some Colour.red)
    (target (Fault_plan.Mem_flip { colour = Colour.red; offset = 3; bit = 1 }));
  check (Alcotest.option colour) "guard smash targets nobody" None
    (target (Fault_plan.Guard_smash { index = 0 }));
  check (Alcotest.option colour) "send end is the sender's domain" (Some Colour.red)
    (target (Fault_plan.Chan_flip { chan = 0; which = Fault_plan.Send_end; word = 0; bit = 0 }));
  check (Alcotest.option colour) "recv end is the receiver's domain" (Some Colour.black)
    (target (Fault_plan.Chan_flip { chan = 0; which = Fault_plan.Recv_end; word = 0; bit = 0 }));
  (* device 2 is BLACK's Rx in the pipeline layout *)
  check (Alcotest.option colour) "device faults target the device owner" (Some Colour.black)
    (target (Fault_plan.Stuck_device { device = 2 }))

let test_plans_strike_inside_run () =
  List.iter
    (fun (p : Fault_plan.t) ->
      List.iter
        (fun (at, _) ->
          if at < 1 || at >= 50 then Alcotest.failf "plan %s strikes at %d" p.Fault_plan.label at)
        p.Fault_plan.faults)
    (Fault_plan.generate ~seed:3 ~steps:50 ~count:100 pipeline_cfg)

let test_multi_fault_plans () =
  let plans = Fault_plan.generate_multi ~seed:4 ~steps:50 ~count:30 ~faults_per_plan:3 pipeline_cfg in
  check Alcotest.int "requested count" 30 (List.length plans);
  List.iter
    (fun (p : Fault_plan.t) ->
      check Alcotest.int (p.Fault_plan.label ^ " carries three faults") 3
        (List.length p.Fault_plan.faults);
      ignore
        (List.fold_left
           (fun prev (at, _) ->
             if at < prev then Alcotest.failf "plan %s strikes out of order" p.Fault_plan.label;
             if at < 1 || at >= 50 then Alcotest.failf "plan %s strikes at %d" p.Fault_plan.label at;
             at)
           0 p.Fault_plan.faults))
    plans;
  let render ps = List.map (fun p -> Json.to_string (Fault_plan.to_json p)) ps in
  check
    (Alcotest.list Alcotest.string)
    "deterministic" (render plans)
    (render (Fault_plan.generate_multi ~seed:4 ~steps:50 ~count:30 ~faults_per_plan:3 pipeline_cfg))

(* -- Kernel hardening ------------------------------------------------------ *)

let status =
  Alcotest.testable
    (fun ppf s ->
      Fmt.string ppf
        (match (s : Abstract_regime.status) with
        | Abstract_regime.Running -> "running"
        | Abstract_regime.Waiting -> "waiting"
        | Abstract_regime.Parked -> "parked"))
    ( = )

(* Corrupting a parked-out regime's save area parks that regime at the
   next switch attempt — with an audit event in the trace and a bumped
   fault counter — while the rest of the system keeps running. *)
let test_save_corruption_parks_and_audits () =
  let t = Sue.build pipeline_cfg in
  let m = Sue.machine t in
  (* BLACK is off-processor at build time; smash its saved R2 *)
  let base = Sue.save_area_base t Colour.black in
  Machine.write_phys m (base + 2) 0xbeef;
  let events = ref [] in
  for _ = 1 to 40 do
    events := !events @ Ktrace.step t []
  done;
  let audited =
    List.exists
      (function Ktrace.Save_corrupt c -> Colour.equal c Colour.black | _ -> false)
      !events
  in
  Alcotest.(check bool) "Save_corrupt audit event traced" true audited;
  check Alcotest.int "fault park counted" 1 (Sue.kstats t).Sue.ks_fault_parks;
  check status "black is parked" Abstract_regime.Parked (Sue.regime_status t Colour.black);
  (* the survivor still runs: red keeps retiring instructions afterwards *)
  let red_before = List.assoc Colour.red (Sue.kstats t).Sue.ks_instrs in
  for n = 1 to 20 do
    ignore (Sue.step t (if n mod 4 = 0 then [ (0, n) ] else []))
  done;
  let red_after = List.assoc Colour.red (Sue.kstats t).Sue.ks_instrs in
  Alcotest.(check bool) "red still makes progress" true (red_after > red_before)

let test_guard_sweep_repairs_and_audits () =
  let t = Sue.build pipeline_cfg in
  let m = Sue.machine t in
  (match Sue.guard_addrs t with
  | g :: _ -> Machine.write_phys m g 0x1234
  | [] -> Alcotest.fail "no guards");
  check Alcotest.int "one breach found" 1 (Sue.guard_sweep t);
  check Alcotest.int "breach counted" 1 (Sue.kstats t).Sue.ks_guard_breaches;
  let audited =
    List.exists (function Sue.Guard_breach _ -> true | _ -> false) (Sue.drain_faults t)
  in
  Alcotest.(check bool) "breach in the audit log" true audited;
  check Alcotest.int "guard repaired: second sweep clean" 0 (Sue.guard_sweep t)

(* The watchdog keeps never-yielding regimes live without a quantum, and
   its fires are audited. *)
let test_watchdog_preempts_greedy () =
  let p = Scenarios.preemptive in
  let cfg = { p.Scenarios.cfg with Config.quantum = None } in
  let t = Sue.build ~watchdog:4 cfg in
  for _ = 1 to 100 do
    ignore (Sue.step t [])
  done;
  let ks = Sue.kstats t in
  Alcotest.(check bool) "watchdog fired" true (ks.Sue.ks_watchdog_fires >= 2);
  List.iter
    (fun (c, n) ->
      if n <= 0 then Alcotest.failf "%a starved despite the watchdog" Colour.pp c)
    ks.Sue.ks_instrs

let test_watchdog_validation () =
  Alcotest.check_raises "watchdog and quantum are exclusive"
    (Invalid_argument "Sue.build: watchdog and preemption quantum are exclusive") (fun () ->
      let p = Scenarios.preemptive in
      ignore (Sue.build ~watchdog:4 p.Scenarios.cfg));
  Alcotest.check_raises "watchdog must be positive"
    (Invalid_argument "Sue.build: watchdog must be positive") (fun () ->
      let p = Scenarios.preemptive in
      ignore (Sue.build ~watchdog:0 { p.Scenarios.cfg with Config.quantum = None }))

(* A fault inside the kernel itself halts to a defined safe state: every
   regime parked, the panic audited, nothing raises. *)
let test_kernel_panic_is_failsafe () =
  let t = Sue.build ~impl:Sue.Assembly pipeline_cfg in
  let m = Sue.machine t in
  let code_base, code_len = Sue.kernel_code_region t in
  Alcotest.(check bool) "assembly kernel has code" true (code_len > 0);
  for a = code_base to code_base + code_len - 1 do
    Machine.write_phys m a 0xffff
  done;
  let events = ref [] in
  for _ = 1 to 30 do
    events := !events @ Ktrace.step t []
  done;
  Alcotest.(check bool) "panic counted" true ((Sue.kstats t).Sue.ks_panics >= 1);
  let audited =
    List.exists (function Ktrace.Kernel_panicked _ -> true | _ -> false) !events
  in
  Alcotest.(check bool) "panic audit event traced" true audited;
  List.iter
    (fun c -> check status (Colour.name c ^ " parked") Abstract_regime.Parked (Sue.regime_status t c))
    (Config.colours pipeline_cfg)

(* -- The outcome lattice ------------------------------------------------------ *)

let outcome_name o = Fmt.str "%a" Campaign.pp_outcome o
let all_outcomes = Campaign.[ Masked; Detected_safe; Recovered_safe; Violating ]

(* Every combination of the four inputs against the precedence written out
   by hand: violating wins; recovery counts only with nothing parked at the
   end; then noticed; then masked. *)
let test_decide_table () =
  let b = [ false; true ] in
  List.iter
    (fun violating ->
      List.iter
        (fun recovered ->
          List.iter
            (fun parked_at_end ->
              List.iter
                (fun noticed ->
                  let expected =
                    match (violating, recovered, parked_at_end, noticed) with
                    | true, _, _, _ -> Campaign.Violating
                    | false, true, false, _ -> Campaign.Recovered_safe
                    | false, _, _, true -> Campaign.Detected_safe
                    | false, _, _, false -> Campaign.Masked
                  in
                  let got = Campaign.decide ~violating ~recovered ~parked_at_end ~noticed in
                  if got <> expected then
                    Alcotest.failf "violating=%b recovered=%b parked=%b noticed=%b: got %s, want %s"
                      violating recovered parked_at_end noticed (outcome_name got)
                      (outcome_name expected))
                b)
            b)
        b)
    b

(* -- The campaign ---------------------------------------------------------- *)

let smoke = lazy (Campaign.run ~seed:42 ~steps:60 ~count:12 ())

let test_campaign_holds () =
  let report = Lazy.force smoke in
  let masked, detected, recovered, violating = Campaign.totals report in
  check Alcotest.int "every fault classified" (List.length Campaign.subjects * 12)
    (masked + detected + recovered + violating);
  check Alcotest.int "zero separation violations" 0 violating;
  check Alcotest.int "no recoveries without a supervisor" 0 recovered;
  Alcotest.(check bool) "containment holds" true (Campaign.holds report);
  Alcotest.(check bool) "at least one detected-safe outcome" true (detected >= 1)

(* The acceptance criterion: some detected-safe case exercised the
   park-and-audit path, visible in its recorded detections. *)
let test_campaign_exercises_park_path () =
  let report = Lazy.force smoke in
  let parked =
    List.exists
      (fun (sr : Campaign.scenario_report) ->
        List.exists
          (fun (c : Campaign.case) ->
            c.Campaign.outcome = Campaign.Detected_safe
            && List.exists
                 (function Sue.Save_area_corrupt _ -> true | _ -> false)
                 c.Campaign.detections)
          sr.Campaign.cases)
      report.Campaign.rp_scenarios
  in
  Alcotest.(check bool) "a detected-safe case parked and audited" true parked

let test_campaign_jsonl_parses () =
  let report = Lazy.force smoke in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Campaign.report_to_jsonl report))
  in
  check Alcotest.int "one line per case plus the summary"
    ((List.length Campaign.subjects * 12) + 1)
    (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj fields) ->
        if not (List.mem_assoc "kind" fields) then Alcotest.failf "line without kind: %s" line
      | Ok _ -> Alcotest.failf "non-object line: %s" line
      | Error e -> Alcotest.failf "unparseable line %s: %s" line e)
    lines

let test_campaign_deterministic () =
  let a = Campaign.report_to_jsonl (Campaign.run ~seed:9 ~steps:40 ~count:6 ()) in
  let b = Campaign.report_to_jsonl (Campaign.run ~seed:9 ~steps:40 ~count:6 ()) in
  check Alcotest.string "same seed, same report" a b

let test_distributed_baseline () =
  let d = Campaign.run_distributed ~seed:42 ~steps:40 ~count:20 in
  Alcotest.(check bool) "tampering had an effect" true (d.Campaign.dr_affected > 0);
  Alcotest.(check bool) "unconnected boxes untouched" true d.Campaign.dr_contained

(* -- The recovery campaign -------------------------------------------------- *)

let recovery_smoke = lazy (Campaign.run_recovery ~seed:42 ~steps:60 ~count:12 ())

let test_recovery_campaign_holds () =
  let report = Lazy.force recovery_smoke in
  let masked, detected, recovered, violating = Campaign.totals report in
  (* 12 single-fault plans plus 6 triple-fault plans per scenario *)
  check Alcotest.int "every fault classified" (List.length Campaign.subjects * 18)
    (masked + detected + recovered + violating);
  check Alcotest.int "zero separation violations" 0 violating;
  Alcotest.(check bool) "containment holds" true (Campaign.holds report);
  Alcotest.(check bool) "faults were recovered" true (recovered > 0);
  List.iter
    (fun (sr : Campaign.scenario_report) ->
      let r =
        List.length (List.filter (fun c -> c.Campaign.outcome = Campaign.Recovered_safe) sr.Campaign.cases)
      and v =
        List.length (List.filter (fun c -> c.Campaign.outcome = Campaign.Violating) sr.Campaign.cases)
      in
      check Alcotest.int (sr.Campaign.label ^ " has no violation") 0 v;
      Alcotest.(check bool) (sr.Campaign.label ^ " recovered something") true (r > 0))
    report.Campaign.rp_scenarios

let test_recovery_cases_record_actions () =
  let report = Lazy.force recovery_smoke in
  List.iter
    (fun (sr : Campaign.scenario_report) ->
      List.iter
        (fun (c : Campaign.case) ->
          if c.Campaign.outcome = Campaign.Recovered_safe && c.Campaign.recoveries = [] then
            Alcotest.failf "recovered-safe case without a recorded recovery in %s" sr.Campaign.label)
        sr.Campaign.cases)
    report.Campaign.rp_scenarios;
  let restarted =
    List.exists
      (fun (sr : Campaign.scenario_report) ->
        List.exists
          (fun (c : Campaign.case) ->
            List.exists
              (function Sue.Regime_restart _ -> true | _ -> false)
              c.Campaign.recoveries)
          sr.Campaign.cases)
      report.Campaign.rp_scenarios
  in
  Alcotest.(check bool) "some case recorded a regime restart" true restarted

let test_recovery_deterministic () =
  let run () = Campaign.report_to_jsonl (Campaign.run_recovery ~seed:9 ~steps:40 ~count:6 ()) in
  check Alcotest.string "same seed, same recovery report" (run ()) (run ())

(* -- JSONL round-trips ------------------------------------------------------- *)

let member name fields =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

(* One campaign report's JSONL: case lines of [case_kind], each carrying
   [case_fields] and a known outcome, then one [summary_kind] line whose
   case count is the sum of its four classes. Returns the outcomes seen. *)
let check_report_jsonl ~case_kind ~case_fields ~summary_kind jsonl =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl) in
  let seen = Hashtbl.create 4 and summaries = ref 0 in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "unparseable line %s: %s" line e
      | Ok (Json.Obj fields) -> (
        match member "kind" fields with
        | Json.String k when k = case_kind ->
          List.iter (fun f -> ignore (member f fields)) ("outcome" :: case_fields);
          let outcome =
            match member "outcome" fields with
            | Json.String s -> s
            | _ -> Alcotest.fail "outcome is not a string"
          in
          if not (List.mem outcome (List.map outcome_name all_outcomes)) then
            Alcotest.failf "unknown outcome %s" outcome;
          Hashtbl.replace seen outcome ();
          (* Each case kind keeps its own [recoveries] shape: the kernel
             campaign lists the recovery actions, the federation counts
             them, the services have no such field. *)
          (match (case_kind, outcome, List.assoc_opt "recoveries" fields) with
          | "fault-case", "recovered-safe", Some (Json.List []) ->
            Alcotest.fail "recovered-safe case with empty recoveries"
          | "fault-case", _, Some (Json.List _)
          | "fed-case", _, Some (Json.Int _)
          | "svc-case", _, None ->
            ()
          | _ -> Alcotest.failf "%s: recoveries has the wrong type in %s" case_kind line)
        | Json.String k when k = summary_kind ->
          incr summaries;
          let int_field f =
            match member f fields with
            | Json.Int n -> n
            | _ -> Alcotest.failf "summary field %s is not an int" f
          in
          check Alcotest.int (summary_kind ^ ": cases = sum of classes")
            (int_field "masked" + int_field "detected_safe" + int_field "recovered_safe"
           + int_field "violating")
            (int_field "cases")
        | _ -> Alcotest.failf "unknown kind in %s" line)
      | Ok _ -> Alcotest.failf "non-object line: %s" line)
    lines;
  check Alcotest.int (summary_kind ^ " lines") 1 !summaries;
  if Hashtbl.length seen = 0 then Alcotest.failf "no %s lines" case_kind;
  Hashtbl.fold (fun o () acc -> o :: acc) seen []

let test_case_jsonl_roundtrip () =
  let seen =
    check_report_jsonl ~case_kind:"fault-case" ~summary_kind:"campaign-summary"
      ~case_fields:
        [ "scenario"; "seed"; "steps"; "plan"; "target"; "victim_perturbed"; "detections";
          "recoveries"; "watchdog_delta" ]
      (Campaign.report_to_jsonl (Lazy.force recovery_smoke))
  in
  List.iter
    (fun o ->
      if o <> Campaign.Violating && not (List.mem (outcome_name o) seen) then
        Alcotest.failf "no %s case in the smoke campaign" (outcome_name o))
    all_outcomes;
  ignore
    (check_report_jsonl ~case_kind:"fed-case" ~summary_kind:"fed-campaign-summary"
       ~case_fields:[ "scenario"; "plan"; "targets"; "victim_perturbed"; "first_violation" ]
       (Sep_fed.Fed_campaign.report_to_jsonl
          (Sep_fed.Fed_campaign.run ~monitor:false ~seed:123 ~steps:200 ~count:2
             Sep_fed.Fed_scenarios.pair)));
  ignore
    (check_report_jsonl ~case_kind:"svc-case" ~summary_kind:"svc-campaign-summary"
       ~case_fields:[ "service"; "plan"; "contract"; "retries"; "first_violation" ]
       (Sep_svc.Svc_campaign.report_to_jsonl
          (Sep_svc.Svc_campaign.run ~monitor:false ~soak:0 ~seed:42 ~steps:600
             Sep_apps.Fed_services.printer)))

let test_dist_json_roundtrip () =
  let d = Campaign.run_distributed ~seed:42 ~steps:40 ~count:20 in
  match Json.parse (Json.to_string (Campaign.dist_to_json d)) with
  | Error e -> Alcotest.failf "unparseable distributed baseline: %s" e
  | Ok (Json.Obj fields) ->
    (match member "kind" fields with
    | Json.String "distributed-baseline" -> ()
    | _ -> Alcotest.fail "wrong kind");
    check Alcotest.int "cases survive the round-trip" d.Campaign.dr_cases
      (match member "cases" fields with Json.Int n -> n | _ -> -1);
    check Alcotest.int "affected survives the round-trip" d.Campaign.dr_affected
      (match member "affected" fields with Json.Int n -> n | _ -> -1);
    Alcotest.(check bool) "contained survives the round-trip" d.Campaign.dr_contained
      (match member "contained" fields with Json.Bool b -> b | _ -> false)
  | Ok _ -> Alcotest.fail "distributed baseline is not an object"

let () =
  Alcotest.run "robust"
    [
      ( "fault plans",
        [
          Alcotest.test_case "deterministic" `Quick test_plans_deterministic;
          Alcotest.test_case "targets" `Quick test_plan_targets;
          Alcotest.test_case "strike inside the run" `Quick test_plans_strike_inside_run;
          Alcotest.test_case "multi-fault plans" `Quick test_multi_fault_plans;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "save corruption parks and audits" `Quick
            test_save_corruption_parks_and_audits;
          Alcotest.test_case "guard sweep repairs and audits" `Quick
            test_guard_sweep_repairs_and_audits;
          Alcotest.test_case "watchdog preempts greedy regimes" `Quick test_watchdog_preempts_greedy;
          Alcotest.test_case "watchdog validation" `Quick test_watchdog_validation;
          Alcotest.test_case "kernel panic is fail-safe" `Quick test_kernel_panic_is_failsafe;
        ] );
      ("outcome lattice", [ Alcotest.test_case "decide table" `Quick test_decide_table ]);
      ( "campaign",
        [
          Alcotest.test_case "containment holds" `Quick test_campaign_holds;
          Alcotest.test_case "park path exercised" `Quick test_campaign_exercises_park_path;
          Alcotest.test_case "jsonl parses" `Quick test_campaign_jsonl_parses;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "distributed baseline" `Quick test_distributed_baseline;
        ] );
      ( "recovery campaign",
        [
          Alcotest.test_case "fail-operational holds" `Quick test_recovery_campaign_holds;
          Alcotest.test_case "cases record recovery actions" `Quick
            test_recovery_cases_record_actions;
          Alcotest.test_case "deterministic" `Quick test_recovery_deterministic;
        ] );
      ( "jsonl round-trips",
        [
          Alcotest.test_case "fault-case and summary schema" `Quick test_case_jsonl_roundtrip;
          Alcotest.test_case "distributed baseline schema" `Quick test_dist_json_roundtrip;
        ] );
    ]
