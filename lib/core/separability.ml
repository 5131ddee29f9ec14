module Colour = Sep_model.Colour
module System = Sep_model.System

type failure = { condition : int; colour : Colour.t; detail : string }

type report = {
  instance : string;
  states : int;
  checks : int;
  cond_checks : (int * int) list;
  failures : failure list;
}

let verified r = r.failures = []

let failing_conditions r =
  List.sort_uniq Int.compare (List.map (fun f -> f.condition) r.failures)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>instance %s: %d states, %d checks: %s@," r.instance r.states r.checks
    (if verified r then "VERIFIED (all six conditions hold)" else "FAILED");
  List.iter
    (fun f -> Fmt.pf ppf "  condition %d violated for %a: %s@," f.condition Colour.pp f.colour f.detail)
    r.failures;
  Fmt.pf ppf "@]"

let pp_summary ppf r =
  Fmt.pf ppf "instance %s: %d states, %d checks: %s" r.instance r.states r.checks
    (if verified r then "VERIFIED (all six conditions hold)"
     else
       Fmt.str "FAILED (condition%s %s, %d counterexample%s)"
         (if List.compare_length_with (failing_conditions r) 1 > 0 then "s" else "")
         (String.concat ", " (List.map string_of_int (failing_conditions r)))
         (List.length r.failures)
         (if List.compare_length_with r.failures 1 > 0 then "s" else ""))

exception Enough

(* One Phi^c-equivalence bucket entry: the representative's abstraction,
   the representative itself, its post-INPUT images, its c-output
   projection and the operation name the first c-active member selected. *)
type ('s, 'i, 'a, 'p) rep = 'a * 's * ('i * 'a) list * 'p * string option ref

type ('s, 'i, 'o, 'a, 'p) checker = {
  sys : ('s, 'i, 'o, 'a, 'p) System.t;
  max_failures : int;
  on_failure : int -> failure -> unit;  (* the driver's hook, given the count so far *)
  mutable checks : int;
  cond : int array;  (* checks per condition, indices 1..6 *)
  mutable failures : failure list;  (* newest first *)
  mutable nfail : int;
  tables : (Colour.t * (int, ('s, 'i, 'a, 'p) rep list ref) Hashtbl.t) list;
  mutable reps : int;  (* distinct abstractions bucketed — the frontier *)
}

let checker ~max_failures ~on_failure sys =
  {
    sys;
    max_failures;
    on_failure;
    checks = 0;
    cond = Array.make 7 0;
    failures = [];
    nfail = 0;
    tables = List.map (fun c -> (c, Hashtbl.create 64)) sys.System.colours;
    reps = 0;
  }

let frontier ck = ck.reps

(* The frontier of the view-equivalence search and each colour's distinct
   Phi^c hash keys as live gauges (the domain-local registry merges into
   the global one at join); keys well below the frontier mean the view
   hash collapses. *)
let publish_frontier ck =
  let module T = Sep_obs.Telemetry in
  let reg = Sep_obs.Span.local () in
  T.set (T.gauge reg "separability.frontier") (float_of_int ck.reps);
  List.iter
    (fun (c, tbl) ->
      T.set
        (T.gauge reg ("separability.phi_keys." ^ Colour.name c))
        (float_of_int (Hashtbl.length tbl)))
    ck.tables

(* Failures past the cap are counted as checks but neither rendered nor
   kept. *)
let record ck condition colour fmt =
  if ck.nfail < ck.max_failures then
    Fmt.kstr
      (fun detail ->
        let f = { condition; colour; detail } in
        ck.failures <- f :: ck.failures;
        ck.nfail <- ck.nfail + 1;
        ck.on_failure ck.nfail f)
      fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let tick ck condition =
  ck.checks <- ck.checks + 1;
  ck.cond.(condition) <- ck.cond.(condition) + 1

let checker_report ck ~instance ~states =
  {
    instance;
    states;
    checks = ck.checks;
    cond_checks = List.init 6 (fun i -> (i + 1, ck.cond.(i + 1)));
    failures = List.rev ck.failures;
  }

(* Span handles for the profiling surfaces; no-ops unless
   [Sep_obs.Span.set_enabled true] was called. *)
let span_reachable = Sep_obs.Span.make "separability.reachable"
let span_cond12 = Sep_obs.Span.make "separability.cond1_2"
let span_cond3456 = Sep_obs.Span.make "separability.cond3_4_5_6"
let span_cond4 = Sep_obs.Span.make "separability.cond4"

(* Conditions 1 and 2 on the state's actually-selected operation. *)
let check_op ck s =
  let sys = ck.sys in
  let op = sys.System.nextop s in
  let c = sys.System.colour_of s in
  let s' = op.System.op_apply s in
  tick ck 1;
  let concrete = sys.System.abstract c s' in
  let abstract_op = sys.System.abop c op in
  let spec = abstract_op.System.abop_apply (sys.System.abstract c s) in
  if not (sys.System.equal_abstate concrete spec) then
    record ck 1 c "op %s from state@ %a@ yields@ %a@ but the abstract machine specifies@ %a"
      op.System.op_name sys.System.pp_state s sys.System.pp_abstate concrete
      sys.System.pp_abstate spec;
  let inactive c' =
    if not (Colour.equal c' c) then begin
      tick ck 2;
      let before = sys.System.abstract c' s and after = sys.System.abstract c' s' in
      if
        (not (sys.System.equal_abstate before after))
        && not (sys.System.sanctioned_interference c c' before after)
      then
        record ck 2 c' "op %s (on behalf of %a) changes %a's view from@ %a@ to@ %a"
          op.System.op_name Colour.pp c Colour.pp c' sys.System.pp_abstate before
          sys.System.pp_abstate after
    end
  in
  List.iter inactive sys.System.colours

(* Group the given inputs by their c-projection; within a group the
   post-INPUT abstractions must agree (condition 4). *)
let check_cond4 ck c s images =
  Sep_obs.Span.time span_cond4 @@ fun () ->
  let sys = ck.sys in
  let groups = ref [] in
  let place (i, img) =
    let proj = sys.System.extract_input c i in
    match List.find_opt (fun (p, _, _) -> sys.System.equal_proj p proj) !groups with
    | None -> groups := (proj, img, i) :: !groups
    | Some (_, rep_img, rep_i) ->
      tick ck 4;
      if not (sys.System.equal_abstate img rep_img) then
        record ck 4 c
          "inputs %a and %a have equal %a-components but give %a different views in state@ %a"
          sys.System.pp_input i sys.System.pp_input rep_i Colour.pp c Colour.pp c
          sys.System.pp_state s
  in
  List.iter place images

(* Conditions 3, 5, 6 compare states with equal Phi^c; we bucket by the
   abstraction and compare against a per-bucket representative. *)
let check_view ck c s =
  let sys = ck.sys in
  let tbl = snd (List.find (fun (c', _) -> Colour.equal c c') ck.tables) in
  let a = sys.System.abstract c s in
  let imgs =
    List.map (fun i -> (i, sys.System.abstract c (sys.System.input s i))) sys.System.inputs
  in
  check_cond4 ck c s imgs;
  let out = sys.System.extract_output c (sys.System.output s) in
  let mine = Colour.equal (sys.System.colour_of s) c in
  let h = sys.System.hash_abstate a in
  let bucket_list =
    match Hashtbl.find_opt tbl h with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add tbl h l;
      l
  in
  match List.find_opt (fun (a', _, _, _, _) -> sys.System.equal_abstate a a') !bucket_list with
  | None ->
    let op6 = ref (if mine then Some (sys.System.nextop s).System.op_name else None) in
    ck.reps <- ck.reps + 1;
    bucket_list := (a, s, imgs, out, op6) :: !bucket_list
  | Some (_, rep, rep_imgs, rep_out, rep_op) ->
    (* condition 3: same input, same effect on c's view *)
    List.iter2
      (fun (i, img) (_, rep_img) ->
        tick ck 3;
        if not (sys.System.equal_abstate img rep_img) then
          record ck 3 c
            "states@ %a@ and@ %a@ look alike to %a but input %a changes %a's view differently"
            sys.System.pp_state s sys.System.pp_state rep Colour.pp c sys.System.pp_input i
            Colour.pp c)
      imgs rep_imgs;
    (* condition 5: same output components for c *)
    tick ck 5;
    if not (sys.System.equal_proj out rep_out) then
      record ck 5 c "states@ %a@ and@ %a@ look alike to %a but emit different %a-outputs"
        sys.System.pp_state s sys.System.pp_state rep Colour.pp c Colour.pp c;
    (* condition 6: same next operation when both are c-active *)
    if mine then begin
      let name = (sys.System.nextop s).System.op_name in
      match !rep_op with
      | None -> rep_op := Some name
      | Some rep_name ->
        tick ck 6;
        if not (String.equal name rep_name) then
          record ck 6 c
            "states@ %a@ and@ %a@ look alike to the active regime %a but select %s vs %s"
            sys.System.pp_state s sys.System.pp_state rep Colour.pp c name rep_name
    end

(* The naive quantification: every pair of states, compared directly.
   Post-INPUT images are precomputed per state so the quadratic part is
   pure comparison. *)
let check_views_pairwise ck states =
  let sys = ck.sys in
  let arr = Array.of_list states in
  let per_colour c =
    let info =
      Array.map
        (fun s ->
          let a = sys.System.abstract c s in
          let imgs =
            List.map (fun i -> sys.System.abstract c (sys.System.input s i)) sys.System.inputs
          in
          let out = sys.System.extract_output c (sys.System.output s) in
          let mine = Colour.equal (sys.System.colour_of s) c in
          let opname = if mine then Some (sys.System.nextop s).System.op_name else None in
          (a, imgs, out, opname))
        arr
    in
    Array.iteri
      (fun x s ->
        check_cond4 ck c s
          (List.map2 (fun i img -> (i, img)) sys.System.inputs
             (let _, imgs, _, _ = info.(x) in
              imgs));
        for y = x + 1 to Array.length arr - 1 do
          let a1, imgs1, out1, op1 = info.(x) in
          let a2, imgs2, out2, op2 = info.(y) in
          if sys.System.equal_abstate a1 a2 then begin
            List.iteri
              (fun k img1 ->
                tick ck 3;
                if not (sys.System.equal_abstate img1 (List.nth imgs2 k)) then
                  record ck 3 c
                    "states@ %a@ and@ %a@ look alike to %a but an input affects them differently"
                    sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c)
              imgs1;
            tick ck 5;
            if not (sys.System.equal_proj out1 out2) then
              record ck 5 c "states@ %a@ and@ %a@ look alike to %a but emit different outputs"
                sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c;
            match (op1, op2) with
            | Some n1, Some n2 ->
              tick ck 6;
              if not (String.equal n1 n2) then
                record ck 6 c
                  "states@ %a@ and@ %a@ look alike to the active regime %a but select %s vs %s"
                  sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c n1 n2
            | _ -> ()
          end
        done)
      arr
  in
  List.iter per_colour sys.System.colours

(* The offline drivers stop at the failure cap; [max 1] keeps a cap of 0
   reporting its first counterexample, as it always has. *)
let offline sys max_failures =
  let max_failures = max 1 max_failures in
  checker ~max_failures ~on_failure:(fun n _ -> if n >= max_failures then raise Enough) sys

let check_states_pairwise ?(max_failures = 20) sys states =
  let ck = offline sys max_failures in
  (try
     Sep_obs.Span.time span_cond12 (fun () -> List.iter (check_op ck) states);
     Sep_obs.Span.time span_cond3456 (fun () -> check_views_pairwise ck states)
   with Enough -> ());
  checker_report ck ~instance:(sys.System.name ^ " (pairwise)") ~states:(List.length states)

(* Conditions 1-2 over all states, then 3-6 colour by colour: the order
   fixes which counterexamples a failing run reports and its counts. *)
let check_states ?(max_failures = 20) sys states =
  let ck = offline sys max_failures in
  (try
     Sep_obs.Span.time span_cond12 (fun () -> List.iter (check_op ck) states);
     Sep_obs.Span.time span_cond3456 (fun () ->
         List.iter (fun c -> List.iter (check_view ck c) states) sys.System.colours)
   with Enough -> ());
  publish_frontier ck;
  checker_report ck ~instance:sys.System.name ~states:(List.length states)

let check ?state_limit ?max_failures sys =
  let states = Sep_obs.Span.time span_reachable (fun () -> System.reachable ?limit:state_limit sys) in
  check_states ?max_failures sys states

let report_to_json r =
  let module J = Sep_util.Json in
  J.Obj
    [
      ("instance", J.String r.instance);
      ("states", J.Int r.states);
      ("checks", J.Int r.checks);
      ( "cond_checks",
        J.Obj (List.map (fun (c, n) -> (string_of_int c, J.Int n)) r.cond_checks) );
      ("verified", J.Bool (verified r));
      ("failing_conditions", J.List (List.map (fun c -> J.Int c) (failing_conditions r)));
      ( "failures",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("condition", J.Int f.condition);
                   ("colour", J.String (Colour.name f.colour));
                   ("detail", J.String f.detail);
                 ])
             r.failures) );
    ]
