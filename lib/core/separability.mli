(** Proof of Separability: checking the six conditions of the Appendix.

    Over a finite {!Sep_model.System} instance the six conditions are
    decidable by enumeration, turning Rushby's proof technique into a
    model checker:

    + [COLOUR(s) = c  ⊃  Phi^c(op(s)) = ABOP^c(op)(Phi^c(s))] — the active
      regime sees exactly its abstract machine's transition;
    + [COLOUR(s) ≠ c  ⊃  Phi^c(op(s)) = Phi^c(s)] — operations on behalf
      of others are invisible;
    + [Phi^c(s) = Phi^c(s')  ⊃  Phi^c(INPUT(s,i)) = Phi^c(INPUT(s',i))] —
      a regime's view of input consumption depends only on its own state;
    + [EXTRACT(c,i) = EXTRACT(c,i')  ⊃  Phi^c(INPUT(s,i)) =
      Phi^c(INPUT(s,i'))] — and only on its own components of the input;
    + [Phi^c(s) = Phi^c(s')  ⊃  EXTRACT(c,OUTPUT(s)) =
      EXTRACT(c,OUTPUT(s'))] — outputs to [c] are a function of [c]'s
      state;
    + [COLOUR(s) = COLOUR(s') = c ∧ Phi^c(s) = Phi^c(s')  ⊃
      NEXTOP(s) = NEXTOP(s')] — operation selection for [c] is a function
      of [c]'s state.

    Conditions 1 and 2 are checked with [op = NEXTOP(s)] — the operation
    that actually executes in [s]; other operations never run in [s], so
    the quantification over [OPS] restricted to the selected operation
    verifies every transition the system can make. Conditions 3–6 are
    universally quantified over state {e pairs} with equal abstractions;
    the checker buckets states by [Phi^c] and compares each bucket member
    against a representative (equality being transitive, this covers all
    pairs). *)

type failure = {
  condition : int;  (** 1–6 *)
  colour : Sep_model.Colour.t;  (** the regime whose view is violated *)
  detail : string;  (** rendered counterexample *)
}

type report = {
  instance : string;
  states : int;  (** states examined *)
  checks : int;  (** condition instances evaluated *)
  cond_checks : (int * int) list;  (** the same count broken out per condition, 1–6 *)
  failures : failure list;
}

val verified : report -> bool
(** No failures. *)

val failing_conditions : report -> int list
(** Sorted, duplicate-free condition numbers among the failures. *)

val pp_report : Format.formatter -> report -> unit

val pp_summary : Format.formatter -> report -> unit
(** One line: the header of {!pp_report} plus the failing conditions —
    without the rendered per-failure counterexamples, for callers (like
    the randomized CLI) that print minimized counterexamples instead. *)

val report_to_json : report -> Sep_util.Json.t
(** Stable machine-readable rendering: [{"instance", "states", "checks",
    "cond_checks": {"1": n, ...}, "verified", "failing_conditions",
    "failures": [{"condition", "colour", "detail"}]}]. *)

(** Checking is profiled through {!Sep_obs.Span} (spans
    [separability.reachable], [separability.cond1_2],
    [separability.cond3_4_5_6], [separability.cond4]) when span profiling
    is enabled; otherwise the instrumentation is inert. *)

val check : ?state_limit:int -> ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> report
(** Exhaustive Proof of Separability over the reachable states of the
    instance ({!Sep_model.System.reachable}, honouring [state_limit]).
    Collects at most [max_failures] (default 20) counterexamples. *)

val check_states :
  ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> 's list -> report
(** The same six-condition examination over a caller-supplied state
    sample — the randomized flavour used on instances too large to
    enumerate. The sample should contain [Phi^c]-equivalent state pairs
    (e.g. produced by perturbing non-[c] state), otherwise conditions
    3, 5 and 6 hold vacuously. *)

val check_states_pairwise :
  ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> 's list -> report
(** The textbook formulation: conditions 3, 5 and 6 literally quantify
    over state {e pairs}, so compare every pair whose abstractions agree.
    Verdict-equivalent to {!check_states} (which buckets by abstraction
    and exploits transitivity of equality) but quadratic in the sample —
    kept as the ablation baseline for experiment E10. *)

(** {1 The checking engine}

    The one implementation of the six conditions. {!check_states} and
    {!Monitor} drive it in different orders over the same per-state
    checks: [check_states] runs {!check_op} over the whole sample and then
    {!check_view} colour by colour, the monitor runs both on each state as
    it arrives. Every state but the first of its Phi^c-class is checked
    against its class's bucket entry, so the check counts do not depend
    on the order; which counterexamples a failing run records can. *)

type ('s, 'i, 'o, 'a, 'p) checker
(** The mutable checking state: check counters (overall and per
    condition), recorded failures, one [Phi^c] bucket table per colour
    keyed by [hash_abstate], and the number of bucket representatives. *)

val checker :
  max_failures:int -> on_failure:(int -> failure -> unit) -> ('s, 'i, 'o, 'a, 'p) Sep_model.System.t ->
  ('s, 'i, 'o, 'a, 'p) checker
(** A fresh checker. At most [max_failures] failures are recorded; later
    ones are counted as checks but neither rendered nor kept.
    [on_failure n f] runs as [f] becomes the [n]th recorded failure — the
    driver's recording behaviour (the offline drivers raise out of the run
    at the cap; the monitor attributes the failure to its step). *)

val check_op : ('s, _, _, _, _) checker -> 's -> unit
(** Conditions 1 and 2 on one state, for its selected operation. *)

val check_view : ('s, _, _, _, _) checker -> Sep_model.Colour.t -> 's -> unit
(** Conditions 3–6 on one state for one colour: condition 4 across the
    input alphabet, then 3, 5 and 6 against the representative of the
    state's [Phi^c] bucket (the state becomes the representative of a new
    bucket). *)

val frontier : _ checker -> int
(** Bucket representatives, summed over colours. *)

val publish_frontier : _ checker -> unit
(** Set the gauge ["separability.frontier"] on {!Sep_obs.Span.local} to
    {!frontier}, and ["separability.phi_keys.<colour>"] to the number of
    distinct [hash_abstate] keys in that colour's bucket table. *)

val checker_report : _ checker -> instance:string -> states:int -> report
