(** Fault-injection campaigns: fault containment as a corollary of
    separation.

    Rushby's argument makes one processor indistinguishable from a
    physically distributed system — and in the distributed ideal a
    hardware fault inside one box cannot corrupt another box. The
    campaign tests that corollary directly: it runs every {!Fault_plan}
    against a fault-free reference of the same scenario and classifies
    each outcome by {e differential per-colour trace comparison}.

    {b Observable trace.} A colour's observable trace is the sequence of
    words on its Tx wires, {e in order but not indexed by step}. Parking
    or slowing one regime redistributes the processor and shifts every
    other regime's step timing; the paper explicitly excludes such timing
    channels from separability, so the comparison tolerates one trace
    being a prefix of the other (the same behaviour, observed for more or
    fewer of its steps) and flags only genuine content divergence. For
    the same reason external input is {e flow-controlled}: a dripped word
    queues until its Rx latch is free, so every regime consumes the same
    word sequence however the processor is shared — otherwise the
    external world doubles as a clock and re-imports the excluded timing
    channel through input sampling.

    {b The outcome lattice.} Every campaign here — this one, the
    federation's ({!Sep_fed.Fed_campaign}) and the services'
    ({!Sep_svc.Svc_campaign}) — classifies a case by the one precedence
    {!decide} implements: {e separation-violating} if the campaign's
    violation oracle fired (here: a colour no fault in the plan targets
    diverged, see {!Fault_plan.target}); otherwise {e recovered-safe} if
    the recovery supervisor acted (a restart or warm reboot appears in the
    audit log) and no regime is still parked at the end — the
    fail-operational outcome; otherwise {e detected-safe} if the system
    noticed the fault (here: the kernel's hardening audited a corruption —
    save-area parks, guard breaches, checkpoint corruption, kernel panics;
    watchdog fires are liveness events and are reported separately);
    otherwise {e masked}. Perturbation of the target itself is allowed
    and recorded: in the distributed ideal too, a fault inside a box may
    corrupt that box. *)

module Colour = Sep_model.Colour
module Sue = Sep_core.Sue
module Scenarios = Sep_core.Scenarios

type outcome =
  | Masked
  | Detected_safe
  | Recovered_safe
  | Violating

val pp_outcome : Format.formatter -> outcome -> unit

type case = {
  plan : Fault_plan.t;
  target : Colour.t option;
  outcome : outcome;
  victim_perturbed : bool;  (** the target's own trace or final status changed *)
  detections : Sue.kernel_fault list;  (** corruption detections (audit log) *)
  recoveries : Sue.kernel_fault list;  (** restarts and warm reboots (audit log) *)
  watchdog_delta : int;  (** watchdog fires beyond the reference run's *)
}

type scenario_report = {
  label : string;
  seed : int;
  steps : int;
  watchdog : int option;  (** armed for both reference and faulty runs *)
  cases : case list;
}

type report = {
  rp_seed : int;
  rp_scenarios : scenario_report list;
}

val subjects : Scenarios.instance list
(** The scenario catalogue under test: {!Scenarios.all} plus
    ["greedy-watchdog"], the preemptive instance re-hosted without a
    quantum so only the watchdog keeps both regimes live. *)

type monitored = {
  mc_case : case;
  mc_first_violation : (int * Sep_core.Separability.failure) option;
      (** the kernel step (as counted by the watch) at which the online
          monitor first flagged a violation, [None] when the run stayed
          separable *)
  mc_deep_checks : int;  (** observations that escalated to a deep check *)
}

val monitored_case :
  ?watchdog:int ->
  ?recover:Sep_recover.Recover.policy ->
  ?period:int ->
  steps:int -> plan:Fault_plan.t -> Scenarios.instance -> monitored
(** One fault-plan replay with an online {!Sep_core.Monitor.watch}
    attached: {!Sep_core.Monitor.observe} runs after every kernel step,
    so a fault that breaks a separability condition is flagged at the
    step the kernel's own audit detects it (or within [period] steps,
    default 32, for silent corruption). The differential classification
    of the case is unchanged — the monitor adds step attribution to
    it. *)

val run : ?jobs:int -> seed:int -> steps:int -> count:int -> unit -> report
(** The full fail-safe campaign over {!subjects}, no recovery — exactly
    PR 2's campaign (each scenario's plans derive from [seed] and its
    label, so scenarios are independently reproducible). Cases replay in
    parallel on up to [jobs] domains (default
    {!Sep_par.Par.default_jobs}); plan generation and replay are
    deterministic, so the report is bit-identical for any job count. *)

val run_recovery :
  ?policy:Sep_recover.Recover.policy -> ?jobs:int -> seed:int -> steps:int -> count:int ->
  unit -> report
(** The fail-operational campaign: same subjects and single-fault plans
    as {!run} plus [count/2] three-fault stress plans per scenario, all
    under a recovery supervisor. The fail-operational claim is that every
    case that parked a regime now ends {!Recovered_safe} — and none ends
    {!Violating}. *)

val holds : report -> bool
(** The headline theorem: no injected fault produced a
    separation-violating outcome. *)

val totals : report -> int * int * int * int
(** (masked, detected-safe, recovered-safe, violating) across all
    scenarios. *)

val report_to_jsonl : report -> string
(** One line per case, then one [{"kind": "campaign-summary", ...}] line
    with the totals and the headline verdict. *)

val summary_json : report -> Sep_util.Json.t
(** The summary object alone (the bench snapshot section). *)

(** {1 The shared core}

    What every campaign runner decides the same way: the kernel,
    federation and service campaigns all call these. *)

val decide : violating:bool -> recovered:bool -> parked_at_end:bool -> noticed:bool -> outcome
(** The outcome lattice above: [Violating], else [Recovered_safe] when
    [recovered] and not [parked_at_end], else [Detected_safe] when
    [noticed], else [Masked]. *)

val is_prefix : 'a list -> 'a list -> bool
(** [is_prefix a b]: [a] is an initial segment of [b]. *)

val prefix_compatible : 'a list -> 'a list -> bool
(** One sequence is a prefix of the other: the same behaviour, observed
    for more or fewer of its steps. *)

val colour_diverged :
  owner:(int -> Colour.t) -> (int * int list) list -> (int * int list) list -> Colour.t -> bool
(** [colour_diverged ~owner reference faulty c]: some Tx device that
    [owner] assigns to [c] carries word sequences in [reference] and
    [faulty] (per-device lists, in the same device order) that are not
    {!prefix_compatible} — genuine content divergence, timing shifts
    tolerated. *)

val strike : Sue.t -> Fault_plan.fault -> unit
(** Apply a machine-level fault (memory, save-area, guard, channel-ring
    and Rx-latch bit flips; spurious IRQs) to one kernel, between
    instructions. The input-path faults (drops, duplicate IRQs, stuck
    devices) need the driver's delivery loop, and node-level faults have
    no meaning against a single kernel, so both are left to the caller:
    [strike] ignores them. *)

val remove_one : 'a -> 'a list -> 'a list
(** Drop the first occurrence, if any (a pending input drop consumed). *)

val drain_faults : Sue.t -> Sue.kernel_fault list * Sue.kernel_fault list * int
(** {!Sep_core.Sue.drain_faults} split three ways: (corruption
    detections, recovery actions — restarts and warm reboots —, watchdog
    fires). *)

val tally : outcome list -> int * int * int * int
(** (masked, detected-safe, recovered-safe, violating). *)

val violation_free : outcome list -> bool
(** No outcome is [Violating]. *)

val jsonl : Sep_util.Json.t list -> string
(** One JSON Lines line per value, in order: a report's case lines
    followed by its summary line. *)

(** {1 The distributed baseline}

    The same argument on {!Sep_dist.Net}, where containment holds by
    construction: tampering with a physical wire can reach only the boxes
    that wire connects. *)

type dist_report = {
  dr_cases : int;
  dr_affected : int;  (** messages altered or destroyed by tampering *)
  dr_contained : bool;  (** unconnected boxes' traces all unchanged *)
}

val run_distributed : seed:int -> steps:int -> count:int -> dist_report
(** A relay [A -> B] plus an isolated box [C]: each case corrupts or
    destroys in-flight messages on the A-B wire at a seeded step and
    checks that A's and C's observable traces equal the tamper-free
    reference — the structural form of the containment the kernel has to
    earn. *)

val dist_to_json : dist_report -> Sep_util.Json.t
