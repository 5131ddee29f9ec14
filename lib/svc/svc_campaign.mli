(** Chaos soaks against the service contract.

    {!Sep_fed.Fed_campaign} asks whether an injected node fault lets one
    colour's words leak into another's trace; this campaign asks the
    question a {e user} of the federation would: did my request commit
    exactly once, or fail definitely? Each case replays one fault plan —
    a directed strike or a {!Sep_robust.Fault_plan.soak} storm — against
    a full service deployment with the online separability monitor
    attached, then audits the effect ledger against the client records.

    Cases land on {!Sep_robust.Campaign}'s outcome lattice (stated once
    there). The violation oracle is the service's own: the monitor
    flagged a separation violation {e or} the service contract broke (a
    lost, duplicated or orphaned effect, or a request left unresolved).
    Noticed and recovered are the federation's evidence
    ({!Sep_fed.Fed_campaign.noticed}, {!Sep_fed.Fed_campaign.recovered});
    regimes left parked do not demote a recovery, since the contract is
    the service's end-state verdict. Plans and replays are deterministic
    in [seed], and cases are independent, so the report is
    byte-identical at any [jobs]. *)

module Fed = Sep_fed.Fed
module Fault_plan = Sep_robust.Fault_plan
module Campaign = Sep_robust.Campaign

type case = {
  sc_plan : Fault_plan.t;
  sc_outcome : Campaign.outcome;
  sc_contract : Svc.contract;
  sc_spool_held : int;  (** jobs still spooled when the run ended *)
  sc_retries : int;
  sc_timeouts : int;
  sc_dedup_hits : int;  (** retries answered from the replay cache *)
  sc_shed : int;
  sc_node_events : int;
  sc_frame_rejects : int;
  sc_abandoned : int list;  (** shards the supervisor gave up on *)
  sc_first_violation : (int * int) option;  (** (shard, step) from the monitor *)
}

type report = {
  sv_name : string;  (** the deployment's [dp_name] *)
  sv_seed : int;
  sv_steps : int;
  sv_cases : case list;
}

val run :
  ?jobs:int ->
  ?monitor:bool ->
  ?policy:Fed.policy ->
  ?tuning:Svc.tuning ->
  ?soak:int ->
  seed:int ->
  steps:int ->
  Svc.deployment ->
  report
(** Directed plans (a clean control case, per-replica and repeated
    crashes, all replicas down, partitions and tampering) plus [soak] (default 6) {!Fault_plan.soak} storms,
    each replayed over [steps] service steps plus the drain, in parallel
    over up to [jobs] domains. *)

val holds : report -> bool
(** No case violated: no separation violation, no broken contract. *)

val monitor_clean : report -> bool

val contracts_ok : report -> bool
(** Every case's service contract held — 0 lost, 0 duplicated, 0 orphaned
    effects, nothing unresolved. *)

val totals : report -> int * int * int * int
(** (masked, detected-safe, recovered-safe, violating). *)

val summary_json : report -> Sep_util.Json.t

val report_to_jsonl : report -> string
(** One ["svc-case"] line per case, then one ["svc-campaign-summary"]. *)
