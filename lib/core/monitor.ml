module Colour = Sep_model.Colour
module System = Sep_model.System

type ('s, 'i, 'o, 'a, 'p) t = {
  ck : ('s, 'i, 'o, 'a, 'p) Separability.checker;
  sys : ('s, 'i, 'o, 'a, 'p) System.t;
  mutable states : int;
  step : int ref;  (* the step the state being fed is attributed to *)
  fresh : Separability.failure list ref;  (* its failures so far, newest first *)
  first : (int * Separability.failure) option ref;
}

(* The first violation flushes the flight recorder: the ring holds the
   causal events leading up to this step. *)
let create ?(max_failures = 20) sys =
  let step = ref 0 and fresh = ref [] and first = ref None in
  let on_failure _ (f : Separability.failure) =
    if Option.is_none !first then begin
      let condition = f.Separability.condition in
      Sep_obs.Trace.instant ~cat:"monitor"
        ~args:
          [
            ("condition", Sep_util.Json.Int condition);
            ("colour", Sep_util.Json.String (Colour.name f.Separability.colour));
            ("step", Sep_util.Json.Int !step);
          ]
        "violation";
      ignore
        (Sep_obs.Trace.dump
           ~reason:(Fmt.str "separability violation: condition %d at step %d" condition !step));
      first := Some (!step, f)
    end;
    fresh := f :: !fresh
  in
  {
    ck = Separability.checker ~max_failures ~on_failure sys;
    sys;
    states = 0;
    step;
    fresh;
    first;
  }

let frontier t = Separability.frontier t.ck
let first_violation t = !(t.first)

let feed ?step t s =
  t.step := (match step with Some n -> n | None -> t.states);
  t.fresh := [];
  t.states <- t.states + 1;
  let reps = frontier t in
  Separability.check_op t.ck s;
  List.iter (fun c -> Separability.check_view t.ck c s) t.sys.System.colours;
  if frontier t <> reps then Separability.publish_frontier t.ck;
  List.rev !(t.fresh)

let report t = Separability.checker_report t.ck ~instance:t.sys.System.name ~states:t.states

(* -- Watching a live kernel ------------------------------------------------- *)

(* The kernel type is fixed here, but the abstraction parameters of the
   packaged system are not worth naming: the watch closes over them. *)
type swatch = {
  w_kernel : Sue.t;
  w_period : int;
  mutable w_steps : int;
  mutable w_deep : int;
  mutable w_last_audit : int;
  w_feed : int -> unit;
  w_report : unit -> Separability.report;
  w_first : unit -> (int * Separability.failure) option;
}

let watch ?(period = 500) ?max_failures ?sanction_channels ~inputs kernel =
  let sys = Sue.to_system ?sanction_channels ~inputs (Sue.config kernel) in
  let mon = create ?max_failures sys in
  let w =
    {
      w_kernel = kernel;
      w_period = max 1 period;
      w_steps = 0;
      w_deep = 0;
      w_last_audit = Sue.audit_count kernel;
      w_feed = (fun step -> ignore (feed ~step mon (Sue.copy kernel)));
      w_report = (fun () -> report mon);
      w_first = (fun () -> first_violation mon);
    }
  in
  w.w_deep <- 1;
  w.w_feed 0;
  w

let observe w =
  w.w_steps <- w.w_steps + 1;
  let a = Sue.audit_count w.w_kernel in
  if a <> w.w_last_audit || w.w_steps mod w.w_period = 0 then begin
    w.w_last_audit <- a;
    w.w_deep <- w.w_deep + 1;
    w.w_feed w.w_steps
  end

let watch_steps w = w.w_steps
let deep_checks w = w.w_deep
let watch_report w = w.w_report ()
let watch_first_violation w = w.w_first ()
