(* One steady benchmark for the verifier, the kernel and the services.

   Three workloads, each generated from --seed and driven from this single
   process on one domain (no Par):

   - verify: exhaustive Proof of Separability of the four stock systems
     (System.reachable, then the six conditions over the reachable
     states), then the online monitor replaying the same states, in a
     seeded order, to the same verdict;
   - kernel: long in-place Sue.step loops over the four scenarios and
     pipeline under the assembly kernel, with seeded input arrivals;
   - serve: the four section-6 deployments with monitors on, each run
     clean and under two seeded soak fault plans of each shape, then
     Svc.finish.

   A run repeats set-up and passes of its workload for --seconds and
   reports medians. With --trace 0 nothing is wrapped and the end-to-end
   metrics are printed; with --trace 1 the calls into each layer's public
   functions are wrapped from out here (spans at pass, scenario and phase
   boundaries; counts and summed time on hot per-call boundaries) and the
   per-layer metrics are printed. Every pass must reproduce the first
   pass's simulated statistics exactly. The last line of standard output
   is one JSON object; README.md defines every metric. *)

module System = Sep_model.System
module Sue = Sep_core.Sue
module Scenarios = Sep_core.Scenarios
module Separability = Sep_core.Separability
module Monitor = Sep_core.Monitor
module Machine = Sep_hw.Machine
module Fed = Sep_fed.Fed
module Net = Sep_distributed.Net
module Svc = Sep_svc.Svc
module Fault_plan = Sep_robust.Fault_plan
module Telemetry = Sep_obs.Telemetry
module Prng = Sep_util.Prng
module Json = Sep_util.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* -- Statistics ------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* The highest of p90/p99/p99.9 that has at least ten samples beyond it. *)
let tail_pct n =
  List.fold_left
    (fun acc p -> if float_of_int n *. (1. -. (p /. 100.)) >= 10. then Some p else acc)
    None [ 90.; 99.; 99.9 ]

let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Nearest-rank percentile of exact integer counts (simulated time). *)
let int_pct xs p =
  match xs with
  | [] -> 0
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Add [v] to the running total named [k]. *)
let accumulate table k v =
  table := (k, v +. Option.value ~default:0. (List.assoc_opt k !table)) :: List.remove_assoc k !table

(* -- Host-speed probe ---------------------------------------------------------

   The benchmark runs on shared hosts whose speed swings by up to ~1.8x for
   seconds to minutes at a time, for allocation-heavy code and for walks
   over large arrays alike, while a tight arithmetic loop does not move;
   the same kernel pass then reads 0.55 s or 0.95 s depending on the minute
   it ran in. A fixed reference computation owned by this file is timed
   before and after every timed block, and each block's time is scaled by
   the probe's nominal time over the mean of its two probes. A block thus
   reads as the seconds it would take on a host where the probe takes its
   nominal time, and the repository's code never runs inside the probe.
   Each workload uses the probe that resembles its dominant cost: [Alloc]
   (short-lived allocation through the stdlib: formatting, a hash table, a
   map, list sorting) for the kernel and the services; [Compare]
   (structural equality of two equal 512K-word arrays, what
   [Machine.equal] does to the states in a hash chain) for the verifier.
   Raw wall times are printed next to the scaled ones. *)

module Probe = struct
  module Int_map = Map.Make (Int)

  type kind =
    | Alloc
    | Compare

  let kind = ref Alloc

  (* About each probe's median on the 2-vCPU host this benchmark was tuned on. *)
  let nominal_s () = match !kind with Alloc -> 0.0045 | Compare -> 0.0023

  let alloc () =
    let acc = ref 0 in
    for i = 1 to 700 do
      let h = Hashtbl.create 8 and m = ref Int_map.empty in
      for j = 0 to 7 do
        let k = Printf.sprintf "k%d-%x" j ((i * 7919) + j) in
        Hashtbl.replace h k j;
        m := Int_map.add ((i * 31) + j) k !m
      done;
      let l = List.sort compare (List.init 20 (fun j -> j * i mod 13)) in
      acc := !acc + Hashtbl.length h + Int_map.cardinal !m + List.hd l
    done;
    !acc

  let arrays =
    let make () = Array.init (512 * 1024) (fun i -> i land 255) in
    lazy (make (), make ())

  let samples = ref []

  (* One probe, starting from an empty minor heap. *)
  let run () =
    let work =
      match !kind with
      | Alloc -> alloc
      | Compare ->
        let a, b = Lazy.force arrays in
        fun () -> Bool.to_int (Sys.opaque_identity a = Sys.opaque_identity b)
    in
    Gc.minor ();
    let t0 = now () in
    ignore (Sys.opaque_identity (work ()));
    let d = now () -. t0 in
    samples := d :: !samples;
    d

  (* [let scale = Probe.scaler () in ... scale raw] after each timed block:
     probes once more and returns [raw] at the nominal host speed. *)
  let scaler () =
    let last = ref (run ()) in
    fun raw ->
      let next = run () in
      let r = (!last +. next) /. 2. in
      last := next;
      raw *. nominal_s () /. r
end

(* -- Heap size ----------------------------------------------------------------

   The major heap's size at its peak within each part of a pass, sampled
   when the part starts and ends and at the end of every major GC cycle in
   between. Unlike the process's peak resident memory, which can only
   grow, this gives every part its own figure, so a pass's memory can be
   averaged over its parts. *)

module Heap = struct
  let peak = ref 0
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words
  let () = ignore (Gc.create_alarm sample)

  let start () =
    peak := 0;
    sample ()

  (* the peak in words since [start] *)
  let read () =
    sample ();
    !peak
end

(* -- Tracing ----------------------------------------------------------------

   Spans at pass, scenario/configuration/deployment and phase boundaries,
   kept in memory and written out when the run ends. Hot per-call
   boundaries keep a call count and summed time instead of spans; a span's
   self time excludes its child spans and the hot calls made inside it,
   which are charged to the called layer. *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    layer : string;
    parent : int;
    start : float;
    mutable stop : float;
    hot0 : float;
    mutable hot1 : float;
  }

  let enabled = ref false
  let spans : span list ref = ref []
  let stack : span list ref = ref []
  let next_id = ref 0
  let origin = now ()

  type hot = { hlayer : string; lsecs : float ref; mutable calls : int; mutable secs : float }

  let hots : (string * hot) list ref = ref []
  let layer_secs : (string * float ref) list ref = ref []
  let hot_total = ref 0.

  let layer_ref layer =
    match List.assoc_opt layer !layer_secs with
    | Some r -> r
    | None ->
      let r = ref 0. in
      layer_secs := (layer, r) :: !layer_secs;
      r

  let hot name hlayer =
    match List.assoc_opt name !hots with
    | Some h -> h
    | None ->
      let h = { hlayer; lsecs = layer_ref hlayer; calls = 0; secs = 0. } in
      hots := (name, h) :: !hots;
      h

  let charge_secs h d =
    h.calls <- h.calls + 1;
    h.secs <- h.secs +. d;
    h.lsecs := !(h.lsecs) +. d;
    hot_total := !hot_total +. d

  let time h f x =
    let t0 = now () in
    let r = f x in
    charge_secs h (now () -. t0);
    r

  let time2 h f x y =
    let t0 = now () in
    let r = f x y in
    charge_secs h (now () -. t0);
    r

  (* Zero the per-phase call counts and times (layer totals keep running). *)
  let phase_reset () =
    List.iter
      (fun (_, h) ->
        h.calls <- 0;
        h.secs <- 0.)
      !hots

  let calls name = match List.assoc_opt name !hots with Some h -> h.calls | None -> 0
  let secs name = match List.assoc_opt name !hots with Some h -> h.secs | None -> 0.

  let span ~layer name f =
    if not !enabled then f ()
    else begin
      let parent = match !stack with p :: _ -> p.id | [] -> -1 in
      incr next_id;
      let s =
        { id = !next_id; name; layer; parent; start = now (); stop = 0.; hot0 = !hot_total; hot1 = 0. }
      in
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- now ();
          s.hot1 <- !hot_total;
          stack := List.tl !stack;
          spans := s :: !spans)
        f
    end

  (* Self time per layer over every recorded span, plus the hot calls. *)
  let self_times () =
    let children = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.add children s.parent s) !spans;
    let acc = Hashtbl.create 16 in
    let add layer v =
      Hashtbl.replace acc layer (v +. Option.value ~default:0. (Hashtbl.find_opt acc layer))
    in
    List.iter
      (fun s ->
        let kids = Hashtbl.find_all children s.id in
        let dur = s.stop -. s.start and hot = s.hot1 -. s.hot0 in
        let kid_dur = List.fold_left (fun a k -> a +. (k.stop -. k.start)) 0. kids in
        let kid_hot = List.fold_left (fun a k -> a +. (k.hot1 -. k.hot0)) 0. kids in
        add s.layer (dur -. kid_dur -. (hot -. kid_hot)))
      !spans;
    List.iter (fun (layer, r) -> add layer !r) !layer_secs;
    acc

  let to_json () =
    let span_json s =
      Json.Obj
        [
          ("id", Json.Int s.id);
          ("name", Json.String s.name);
          ("layer", Json.String s.layer);
          ("parent", Json.Int s.parent);
          ("start_s", Json.Float (s.start -. origin));
          ("end_s", Json.Float (s.stop -. origin));
        ]
    in
    let hot_json (name, h) =
      Json.Obj
        [
          ("name", Json.String name);
          ("layer", Json.String h.hlayer);
          ("layer_total_s", Json.Float !(h.lsecs));
        ]
    in
    Json.Obj
      [
        ("spans", Json.List (List.rev_map span_json !spans));
        ("hot_boundaries", Json.List (List.rev_map hot_json !hots));
      ]
end

(* -- One pass of a workload ------------------------------------------------ *)

(* A scenario (verify), a step window (kernel) or a service run (serve):
   the unit whose simulated statistics are compared across passes. *)
type part = {
  label : string;
  attempted : int;  (** operations: 1, or the run's requests *)
  wrong : bool;  (** a result of the part was wrong: every op counts as failed *)
  refused : int;  (** operations that ended in a definite failure *)
  stats : (string * int) list;  (** simulated statistics *)
  heap_words : int;  (** the major heap's peak during the part *)
}

type pass = {
  work_s : float;  (** the timed work at nominal host speed: pass_s *)
  wall_s : float;  (** the same, as measured *)
  ops : int;  (** operations completed in [ops_s] *)
  ops_s : float;  (** at nominal host speed *)
  timings : (string * float) list;  (** named per-pass timings at nominal host speed *)
  samples : (string * float list) list;  (** named per-operation samples *)
  parts : part list;
  problems : string list;
  layer : (string * float) list;  (** per-layer metrics (traced passes) *)
}

let empty_pass =
  {
    work_s = 0.;
    wall_s = 0.;
    ops = 0;
    ops_s = 0.;
    timings = [];
    samples = [];
    parts = [];
    problems = [];
    layer = [];
  }

(* -- verify ---------------------------------------------------------------- *)

let state_hashes : (int, unit) Hashtbl.t = Hashtbl.create 1024
let abs_hashes : (int, unit) Hashtbl.t = Hashtbl.create 1024

(* The system record with its hot functions counted and timed: states are
   Sue kernels, so INPUT, NEXTOP, the operation and Phi are Sue's; state
   hash and equality are the machine's; abstract-state hash and equality
   are Abstract_regime's. *)
let instrument (sys : (_, _, _, _, _) System.t) =
  let h_hash = Trace.hot "hash_state" "Machine" and h_eq = Trace.hot "equal_state" "Machine" in
  let h_input = Trace.hot "input" "Sue" and h_nextop = Trace.hot "nextop" "Sue" in
  let h_op = Trace.hot "op_apply" "Sue" and h_phi = Trace.hot "abstract" "Sue" in
  let h_aeq = Trace.hot "equal_abstate" "Abstract_regime" in
  let h_ahash = Trace.hot "hash_abstate" "Abstract_regime" in
  {
    sys with
    System.hash_state =
      (fun s ->
        let h = Trace.time h_hash sys.System.hash_state s in
        Hashtbl.replace state_hashes h ();
        h);
    equal_state = Trace.time2 h_eq sys.System.equal_state;
    input = Trace.time2 h_input sys.System.input;
    nextop =
      (fun s ->
        let op = Trace.time h_nextop sys.System.nextop s in
        { op with System.op_apply = Trace.time h_op op.System.op_apply });
    abstract = Trace.time2 h_phi sys.System.abstract;
    equal_abstate = Trace.time2 h_aeq sys.System.equal_abstate;
    hash_abstate =
      (fun a ->
        let h = Trace.time h_ahash sys.System.hash_abstate a in
        Hashtbl.replace abs_hashes h ();
        h);
  }

let verify_setup () =
  List.map
    (fun sc -> (sc, Sue.to_system ~inputs:sc.Scenarios.alphabet sc.Scenarios.cfg))
    Scenarios.all

let verify_pass ~seed ~traced =
  let rng = Prng.create seed in
  let systems = verify_setup () in
  let verify_s = ref 0. and monitor_s = ref 0. and wall = ref 0. and states_total = ref 0 in
  let problems = ref [] and parts = ref [] and layer = ref [] in
  let add = accumulate layer in
  let distinct = ref 0 and abs_distinct = ref 0 and frontier = ref 0 in
  let scale = Probe.scaler () in
  List.iter
    (fun (sc, sys) ->
      let label = sc.Scenarios.label in
      let sys = if traced then instrument sys else sys in
      Trace.span ~layer:"bench" ("scenario " ^ label) @@ fun () ->
      Heap.start ();
      Hashtbl.reset state_hashes;
      Trace.phase_reset ();
      let t0 = now () in
      let states = Trace.span ~layer:"System" "reachable" (fun () -> System.reachable sys) in
      let t1 = now () in
      let n = List.length states in
      if traced then begin
        let eq = Trace.calls "equal_state" in
        add "reachable.s" (t1 -. t0);
        add "reachable.states" (float_of_int n);
        add "reachable.transitions" (float_of_int (Trace.calls "op_apply"));
        add "reachable.transition_s" (Trace.secs "input" +. Trace.secs "nextop" +. Trace.secs "op_apply");
        add "reachable.hash_calls" (float_of_int (Trace.calls "hash_state"));
        add "reachable.equal_calls" (float_of_int eq);
        add ("reachable.equal_calls." ^ label) (float_of_int eq);
        add ("reachable.distinct_hash_ratio." ^ label)
          (float_of_int (Hashtbl.length state_hashes) /. float_of_int n);
        distinct := !distinct + Hashtbl.length state_hashes;
        Trace.phase_reset ()
      end;
      let t1 = now () in
      let rep =
        Trace.span ~layer:"Separability" "conditions" (fun () -> Separability.check_states sys states)
      in
      let t2 = now () in
      if traced then begin
        add "conditions.s" (t2 -. t1);
        add "conditions.checks" (float_of_int rep.Separability.checks);
        List.iter
          (fun (c, k) -> add (Fmt.str "conditions.cond%d" c) (float_of_int k))
          rep.Separability.cond_checks;
        add "conditions.phi_calls" (float_of_int (Trace.calls "abstract"));
        add "conditions.phi_s" (Trace.secs "abstract")
      end;
      verify_s := !verify_s +. scale (t2 -. t0);
      wall := !wall +. (t2 -. t0);
      states_total := !states_total + rep.Separability.states;
      (* the monitor sees the same states in a seeded order: its checks
         and verdict must not depend on arrival order *)
      let arrivals = Array.of_list states in
      Prng.shuffle rng arrivals;
      Hashtbl.reset abs_hashes;
      Trace.phase_reset ();
      let t3 = now () in
      let m =
        Trace.span ~layer:"Monitor" "monitor" (fun () ->
            let m = Monitor.create sys in
            Array.iter (fun s -> ignore (Monitor.feed m s)) arrivals;
            m)
      in
      let t4 = now () in
      monitor_s := !monitor_s +. scale (t4 -. t3);
      wall := !wall +. (t4 -. t3);
      let mrep = Monitor.report m in
      if traced then begin
        add "monitor.feed_s" (t4 -. t3);
        add "monitor.checks" (float_of_int mrep.Separability.checks);
        add "monitor.abs_equal_calls" (float_of_int (Trace.calls "equal_abstate"));
        abs_distinct := !abs_distinct + Hashtbl.length abs_hashes;
        frontier := !frontier + Monitor.frontier m
      end;
      let ok = Separability.verified rep in
      let agree =
        Separability.verified mrep = ok
        && mrep.Separability.states = rep.Separability.states
        && mrep.Separability.checks = rep.Separability.checks
        && mrep.Separability.cond_checks = rep.Separability.cond_checks
      in
      if not ok then problems := Fmt.str "%s: not verified" label :: !problems;
      if not agree then problems := Fmt.str "%s: monitor disagrees with offline" label :: !problems;
      let stats =
        List.map (fun (c, k) -> (Fmt.str "cond%d" c, k)) rep.Separability.cond_checks
        @ [ ("states", rep.Separability.states); ("checks", rep.Separability.checks) ]
      in
      let wrong = not (ok && agree) in
      parts := { label; attempted = 1; wrong; refused = 0; stats; heap_words = Heap.read () } :: !parts)
    systems;
  if traced then begin
    add "reachable.distinct_hash_ratio"
      (float_of_int !distinct /. List.assoc "reachable.states" !layer);
    add "monitor.distinct_abs_hash_ratio" (float_of_int !abs_distinct /. float_of_int (max 1 !frontier))
  end;
  {
    empty_pass with
    work_s = !verify_s +. !monitor_s;
    wall_s = !wall;
    ops = !states_total;
    ops_s = !verify_s;
    timings = [ ("verify_s", !verify_s); ("monitor_s", !monitor_s) ];
    parts = List.rev !parts;
    problems = List.rev !problems;
    layer = !layer;
  }

(* -- kernel ---------------------------------------------------------------- *)

(* Steps per configuration and pass: a window of well over 100 ms. *)
let window = 250_000

let kernel_configs =
  List.map (fun sc -> (sc.Scenarios.label, sc, Sue.Microcode)) Scenarios.all
  @ [ ("pipeline-assembly", Scenarios.pipeline, Sue.Assembly) ]

(* Arrivals for every step, drawn from each scenario's alphabet. *)
let kernel_inputs ~seed =
  List.mapi
    (fun k (_, sc, _) ->
      let rng = Prng.stream seed k in
      let alphabet = Array.of_list sc.Scenarios.alphabet in
      Array.init window (fun _ -> Prng.choose rng alphabet))
    kernel_configs

let kernel_setup () = List.map (fun (_, sc, impl) -> Sue.build ~impl sc.Scenarios.cfg) kernel_configs

let mix digest out =
  List.fold_left (fun d (dev, w) -> (d * 1_000_003) lxor ((dev lsl 24) lor w)) ((digest * 31) + 1) out

(* Per-call Sue.step times in 1 ns buckets (the last bucket collects the rest). *)
let step_hist = Array.make 200_000 0

let hist_quantile q =
  let total = Array.fold_left ( + ) 0 step_hist in
  let target = Float.ceil (q *. float_of_int total) in
  let rec go i acc =
    if i >= Array.length step_hist - 1 then i
    else
      let acc = acc + step_hist.(i) in
      if float_of_int acc >= target then i else go (i + 1) acc
  in
  float_of_int (go 0 0)

let kernel_pass ~inputs ~traced =
  (* fresh kernels every pass: kstats are shared by every copy of a built
     kernel, so only a bare build counts just the work measured here *)
  let kernels = kernel_setup () in
  let h_step = Trace.hot "Sue.step" "Sue" in
  let total = ref 0. and wall = ref 0. and parts = ref [] and layer = ref [] and rates = ref [] in
  let add = accumulate layer in
  Trace.phase_reset ();
  let scale = Probe.scaler () in
  List.iteri
    (fun i ((label, _, _), k) ->
      let arrivals = List.nth inputs i in
      let digest = ref 0 in
      Heap.start ();
      let t0 = now () in
      Trace.span ~layer:"bench" ("window " ^ label) (fun () ->
          if traced then
            for n = 0 to window - 1 do
              let c0 = Monotonic_clock.now () in
              let out = Sue.step k arrivals.(n) in
              let d = Int64.to_int (Int64.sub (Monotonic_clock.now ()) c0) in
              let b = min d (Array.length step_hist - 1) in
              step_hist.(b) <- step_hist.(b) + 1;
              Trace.charge_secs h_step (float_of_int d *. 1e-9);
              digest := mix !digest out
            done
          else
            for n = 0 to window - 1 do
              digest := mix !digest (Sue.step k arrivals.(n))
            done);
      let dt = now () -. t0 in
      let scaled = scale dt in
      total := !total +. scaled;
      wall := !wall +. dt;
      rates := (float_of_int window /. scaled) :: !rates;
      let ks = Sue.kstats k in
      let counts =
        [
          ("digest", !digest);
          ("instrs", sum_int snd ks.Sue.ks_instrs);
          ("traps", sum_int snd ks.Sue.ks_traps);
          ("swaps", sum_int snd ks.Sue.ks_swaps);
          ("sent", sum_int snd ks.Sue.ks_sent);
          ("recvd", sum_int snd ks.Sue.ks_recvd);
          ("switches", ks.Sue.ks_switches);
          ("irqs", ks.Sue.ks_irqs_forwarded);
          ("wakes", ks.Sue.ks_wakes);
          ("stalls", ks.Sue.ks_stalls);
          ("inputs_latched", ks.Sue.ks_inputs_latched);
          ("outputs_observed", ks.Sue.ks_outputs_observed);
          ("kernel_instrs", ks.Sue.ks_kernel_instrs);
          ("checkpoints", ks.Sue.ks_checkpoints);
          ("hw_instructions", Machine.instruction_count (Sue.machine k));
        ]
      in
      let heap_words = Heap.read () in
      parts := { label; attempted = 1; wrong = false; refused = 0; stats = counts; heap_words } :: !parts;
      if traced then
        List.iter
          (fun (metric, count) -> add metric (float_of_int (List.assoc count counts)))
          [
            ("sue.instrs", "instrs");
            ("sue.traps", "traps");
            ("sue.swaps", "swaps");
            ("sue.switches", "switches");
            ("sue.checkpoints", "checkpoints");
            ("sue.irqs", "irqs");
            ("hw.instructions", "hw_instructions");
            ("hw.kernel_instrs", "kernel_instrs");
          ])
    (List.combine kernel_configs kernels);
  if traced then begin
    add "sue.step_ns" (Trace.secs "Sue.step" *. 1e9 /. float_of_int (max 1 (Trace.calls "Sue.step")));
    add "sue.checkpoints_per_switch"
      (List.assoc "sue.checkpoints" !layer /. Float.max 1. (List.assoc "sue.switches" !layer))
  end;
  {
    empty_pass with
    work_s = !total;
    wall_s = !wall;
    ops = window * List.length kernel_configs;
    ops_s = !total;
    samples = [ ("kernel_steps_per_s", !rates) ];
    parts = List.rev !parts;
    layer = !layer;
  }

(* -- serve ----------------------------------------------------------------- *)

(* Service steps per run before Svc.finish drains what is in flight. *)
let horizon = 3000

(* Soak plans come in four shapes whose costs differ several-fold (a
   flapping partition drains far longer than repeated crashes). Drawn at
   random, the mix of shapes set a pass's cost, so each deployment runs
   the first [per_shape] plans of each shape among [candidates] seeded
   plans. *)
let soak_shapes = [ "crash"; "flap"; "tamper"; "mixed" ]

let per_shape = 2

let candidates = 64

(* Plan labels read "s<i>-<shape>x<strikes>-<target>@<step>". *)
let has_shape shape (p : Fault_plan.t) =
  match String.split_on_char '-' p.Fault_plan.label with
  | _ :: rest :: _ -> String.starts_with ~prefix:(shape ^ "x") rest
  | _ -> false

(* Each deployment clean, then under its seeded soak plans. Every run
   builds its service from a seed of its own (request streams, retry
   jitter), so a pass averages over as many draws as it has runs. *)
let serve_runs ~seed =
  let rng = Prng.create seed in
  List.map (fun (dep, plan) -> (dep, plan, Prng.int rng 1_000_000_000))
  @@ List.concat
    (List.mapi
       (fun i (dep : Svc.deployment) ->
         let spec = Svc.spec_of dep in
         let seed = Prng.int (Prng.stream seed i) 1_000_000_000 in
         let plans =
           Fault_plan.soak ~nodes:(Fed.node_space spec) ~seed ~steps:horizon ~count:candidates
             spec.Fed.fs_cfg
         in
         let soak =
           List.concat_map
             (fun shape -> List.filteri (fun k _ -> k < per_shape) (List.filter (has_shape shape) plans))
             soak_shapes
         in
         (dep, None) :: List.map (fun p -> (dep, Some p)) soak)
       Sep_apps.Fed_services.all)

let serve_setup runs = List.map (fun (dep, plan, seed) -> Svc.build ?plan ~monitor:true ~seed dep) runs

let is_refusal = function
  | Some (Svc.O_gave_up | Svc.O_fail_fast | Svc.O_unknown | Svc.O_client_dead | Svc.O_shed) | None
    ->
    true
  | Some _ -> false

let serve_pass ~runs ~traced =
  let svcs = serve_setup runs in
  let h_step = Trace.hot "Svc.step" "Svc" in
  let total = ref 0. and wall = ref 0. and resolved = ref 0 and requests = ref 0 in
  let problems = ref [] and parts = ref [] and layer = ref [] in
  let rtt_ms = ref [] and rtt_steps = ref [] and attempts = ref 0 in
  let first = ref 0. and last = ref 0. and decile_steps = ref 0 in
  let add = accumulate layer in
  let scale = Probe.scaler () in
  List.iteri
    (fun i ((dep, plan, _), t) ->
      let label =
        Fmt.str "%s.%s" dep.Svc.dp_name (match plan with None -> "clean" | Some _ -> "soak")
      in
      Trace.span ~layer:"bench" ("deployment " ^ label) @@ fun () ->
      (* stamps.(k) is the host time at the end of service step k *)
      let stamps = Array.make horizon 0. in
      Heap.start ();
      let t0 = now () in
      Trace.span ~layer:"bench" "step loop" (fun () ->
          for k = 0 to horizon - 1 do
            if traced then Trace.time h_step Svc.step t else Svc.step t;
            stamps.(k) <- now ()
          done);
      let f0 = now () in
      let before = Fed.step_no (Svc.fed t) in
      let r = Trace.span ~layer:"Svc" "finish" (fun () -> Svc.finish t) in
      let f1 = now () in
      let drained = max 1 (Fed.step_no (Svc.fed t) - before) in
      total := !total +. scale (f1 -. t0);
      wall := !wall +. (f1 -. t0);
      (* steps drained inside finish are not visible from here: spread
         them evenly over the finish call *)
      let host k =
        if k < horizon then stamps.(k)
        else
          f0 +. (Float.min 1. (float_of_int (k - horizon + 1) /. float_of_int drained) *. (f1 -. f0))
      in
      let recs = r.Svc.sr_records in
      let ok = List.filter (fun rr -> rr.Svc.rr_outcome <> None) recs in
      let steps_rtt = List.map (fun rr -> rr.Svc.rr_resolved - rr.Svc.rr_issued) ok in
      List.iter
        (fun rr -> rtt_ms := ((host rr.Svc.rr_resolved -. host rr.Svc.rr_issued) *. 1e3) :: !rtt_ms)
        ok;
      rtt_steps := steps_rtt @ !rtt_steps;
      let n = List.length recs in
      requests := !requests + n;
      resolved := !resolved + List.length ok;
      attempts := !attempts + sum_int (fun rr -> rr.Svc.rr_attempts) recs;
      let ct = r.Svc.sr_contract and ob = r.Svc.sr_fed in
      if not ct.Svc.ct_ok then problems := Fmt.str "%s: service contract broken" label :: !problems;
      (match ob.Fed.fob_first_violation with
      | None -> ()
      | Some (shard, step) ->
        problems := Fmt.str "%s: shard %d monitor violation at %d" label shard step :: !problems);
      let outcomes = Hashtbl.create 8 in
      List.iter
        (fun rr ->
          let k = match rr.Svc.rr_outcome with Some o -> Svc.outcome_name o | None -> "unresolved" in
          Hashtbl.replace outcomes k (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k)))
        recs;
      let counts =
        Hashtbl.fold (fun k v acc -> ("outcome." ^ k, v) :: acc) outcomes []
        @ [
            ("requests", n);
            ("committed", ct.Svc.ct_committed);
            ("effects", ct.Svc.ct_effects);
            ("rtt_steps_p50", int_pct steps_rtt 0.5);
            ("rtt_steps_p90", int_pct steps_rtt 0.9);
            ("delivered_words", ob.Fed.fob_delivered);
            ("retransmits", ob.Fed.fob_stats.Net.ls_retransmits);
          ]
      in
      parts :=
        {
          label = Fmt.str "%d.%s" i label;
          attempted = n;
          wrong = (not ct.Svc.ct_ok) || ob.Fed.fob_first_violation <> None;
          refused = List.length (List.filter (fun rr -> is_refusal rr.Svc.rr_outcome) recs);
          stats = counts;
          heap_words = Heap.read ();
        }
        :: !parts;
      let dec = horizon / 10 in
      first := !first +. (stamps.(dec) -. stamps.(0));
      last := !last +. (stamps.(horizon - 1) -. stamps.(horizon - 1 - dec));
      decile_steps := !decile_steps + dec;
      if traced then begin
        let tel = Svc.telemetry t in
        let c name =
          match Telemetry.find_counter tel name with
          | Some k -> float_of_int (Telemetry.counter_value k)
          | None -> 0.
        in
        List.iter
          (fun k -> add k (c k))
          [ "svc.requests"; "svc.retries"; "svc.timeouts"; "svc.dedup_hits"; "svc.shed" ];
        add "svc.finish_s" (f1 -. f0);
        add "fed.delivered_words" (float_of_int ob.Fed.fob_delivered);
        add "fed.frame_rejects" (float_of_int ob.Fed.fob_frame_rejects);
        add "fed.node_events" (float_of_int (List.length ob.Fed.fob_events));
        add "fed.recoveries" (float_of_int (List.length ob.Fed.fob_recoveries));
        add "net.retransmits" (float_of_int ob.Fed.fob_stats.Net.ls_retransmits);
        add "net.acks" (float_of_int ob.Fed.fob_stats.Net.ls_acks);
        add "monitor.deep_checks" (float_of_int ob.Fed.fob_deep_checks)
      end)
    (List.combine runs svcs);
  if traced then begin
    let first_us = !first *. 1e6 /. float_of_int !decile_steps in
    let last_us = !last *. 1e6 /. float_of_int !decile_steps in
    add "svc.attempts_per_request" (float_of_int !attempts /. float_of_int (max 1 !requests));
    add "svc.rtt_steps_p50" (float_of_int (int_pct !rtt_steps 0.5));
    add "svc.rtt_steps_p90" (float_of_int (int_pct !rtt_steps 0.9));
    add "svc.step_us.first_decile" first_us;
    add "svc.step_us.last_decile" last_us;
    add "svc.step_growth" (last_us /. first_us)
  end;
  {
    empty_pass with
    work_s = !total;
    wall_s = !wall;
    ops = !resolved;
    ops_s = !total;
    samples = [ ("rtt_ms", !rtt_ms) ];
    parts = List.rev !parts;
    problems = List.rev !problems;
    layer = !layer;
  }

(* -- Main ------------------------------------------------------------------ *)

(* Every per-layer metric, in report order; a workload that does not reach
   a layer reports 0 for it. *)
let per_layer_metrics =
  [
    ("reachable.s", "s");
    ("reachable.states", "count");
    ("reachable.transitions", "count");
    ("reachable.transition_s", "s");
    ("reachable.hash_calls", "count");
    ("reachable.equal_calls", "count");
    ("reachable.distinct_hash_ratio", "ratio");
  ]
  @ List.concat_map
      (fun sc ->
        let l = sc.Scenarios.label in
        [ ("reachable.distinct_hash_ratio." ^ l, "ratio"); ("reachable.equal_calls." ^ l, "count") ])
      Scenarios.all
  @ [ ("conditions.s", "s"); ("conditions.checks", "count") ]
  @ List.init 6 (fun i -> (Fmt.str "conditions.cond%d" (i + 1), "count"))
  @ [
      ("conditions.phi_calls", "count");
      ("conditions.phi_s", "s");
      ("monitor.feed_s", "s");
      ("monitor.checks", "count");
      ("monitor.abs_equal_calls", "count");
      ("monitor.distinct_abs_hash_ratio", "ratio");
      ("monitor.deep_checks", "count");
      ("sue.step_ns", "ns");
      ("sue.step_ns_p99", "ns");
      ("sue.instrs", "count");
      ("sue.traps", "count");
      ("sue.swaps", "count");
      ("sue.switches", "count");
      ("sue.checkpoints", "count");
      ("sue.irqs", "count");
      ("sue.checkpoints_per_switch", "ratio");
      ("hw.instructions", "count");
      ("hw.kernel_instrs", "count");
      ("fed.delivered_words", "count");
      ("fed.frame_rejects", "count");
      ("fed.node_events", "count");
      ("fed.recoveries", "count");
      ("net.retransmits", "count");
      ("net.acks", "count");
      ("svc.step_us.first_decile", "us");
      ("svc.step_us.last_decile", "us");
      ("svc.step_growth", "ratio");
      ("svc.requests", "count");
      ("svc.retries", "count");
      ("svc.timeouts", "count");
      ("svc.dedup_hits", "count");
      ("svc.shed", "count");
      ("svc.attempts_per_request", "ratio");
      ("svc.rtt_steps_p50", "steps");
      ("svc.rtt_steps_p90", "steps");
      ("svc.finish_s", "s");
    ]
  @ List.map
      (fun l -> ("self." ^ l ^ "_s", "s"))
      [ "bench"; "System"; "Separability"; "Monitor"; "Sue"; "Machine"; "Abstract_regime"; "Svc" ]
  @ [
      ("trace.untraced_pass_s", "s");
      ("trace.traced_pass_s", "s");
      ("trace.overhead_s", "s");
      ("trace.overhead_frac", "ratio");
    ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

(* The heap words reachable from [v], in MB. *)
let size_mb v = words_mb (Obj.reachable_words (Obj.repr v))

(* One set-up sample, at nominal host speed and as measured: repeat the
   set-up for at least 2 ms and divide, so a set-up of tens of
   microseconds is not lost in timer noise. *)
let setup_sample setup_once =
  Gc.full_major ();
  let scale = Probe.scaler () in
  let t0 = now () in
  let reps = ref 0 in
  while !reps = 0 || now () -. t0 < 0.002 do
    setup_once ();
    incr reps
  done;
  let dt = (now () -. t0) /. float_of_int !reps in
  (scale dt, dt)

(* "name  median  [pNN tail]  n=samples" *)
let print_metric name unit xs =
  let a = sorted xs in
  let n = Array.length a in
  match tail_pct n with
  | Some p ->
    Fmt.pr "%-22s %14.6g %-5s median %14.6g p%g  n=%d@." name (quantile a 0.5) unit
      (quantile a (p /. 100.)) p n
  | None -> Fmt.pr "%-22s %14.6g %-5s median  n=%d@." name (quantile a 0.5) unit n

let usage () =
  prerr_endline
    "usage: perfbench --workload verify|kernel|serve --seed N --seconds S --trace 0|1 \
     [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let spans_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | "--spans" :: v :: rest ->
      spans_file := Some v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  (* each workload's pass and set-up, and the size of what the benchmark
     itself holds through the run: its inputs and probe arrays *)
  let run_pass, setup_once, harness_mb =
    match !workload with
    | "verify" ->
      Probe.kind := Probe.Compare;
      ( (fun ~traced -> verify_pass ~seed ~traced),
        (fun () -> ignore (verify_setup ())),
        size_mb (Lazy.force Probe.arrays) )
    | "kernel" ->
      let inputs = kernel_inputs ~seed in
      ( (fun ~traced -> kernel_pass ~inputs ~traced),
        (fun () -> ignore (kernel_setup ())),
        size_mb inputs )
    | "serve" ->
      let runs = serve_runs ~seed in
      ( (fun ~traced -> serve_pass ~runs ~traced),
        (fun () -> ignore (serve_setup runs)),
        size_mb (List.map (fun (_, plan, _) -> plan) runs) )
    | _ -> usage ()
  in
  Fmt.pr "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s domains=1@."
    !workload seed seconds
    (if traced then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  (* The first pass runs on a fresh heap, and peak memory is read right
     after it, before anything whose repetitions depend on host speed;
     what the benchmark itself holds is left out. *)
  let t_start = now () in
  let first = run_pass ~traced:false in
  let rss = peak_rss_mb () -. harness_mb in
  let heap =
    (List.fold_left (fun acc p -> acc +. words_mb p.heap_words) 0. first.parts
    /. float_of_int (List.length first.parts))
    -. harness_mb
  in
  (* set-up, several times, outside the run's window *)
  let t_setup = now () in
  let setups = ref [] in
  while List.length !setups < 10 || (List.length !setups < 50 && now () -. t_setup < 0.5) do
    setups := setup_sample setup_once :: !setups
  done;
  let setup_time = now () -. t_setup in
  let elapsed () = now () -. t_start -. setup_time in
  (* passes for the run's window: untraced, or half untraced and half traced *)
  let passes = ref [ (false, first) ] in
  let untraced_until = if traced then seconds /. 2. else seconds in
  while elapsed () < untraced_until do
    Gc.full_major ();
    passes := (false, run_pass ~traced:false) :: !passes
  done;
  if traced then begin
    Trace.enabled := true;
    let n0 = List.length !passes in
    while List.length !passes = n0 || elapsed () < seconds do
      Gc.full_major ();
      let p = Trace.span ~layer:"bench" ("pass " ^ !workload) (fun () -> run_pass ~traced:true) in
      passes := (true, p) :: !passes
    done;
    Trace.enabled := false
  end;
  let passes = List.rev !passes in
  let all = List.map snd passes in
  let plain = List.filter_map (fun (t, p) -> if t then None else Some p) passes in
  let traced_passes = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
  (* Simulated statistics must repeat exactly, traced or not: a part
     whose statistics differ from the first pass's is wrong. *)
  let stats_of p = List.sort compare p.stats in
  let diffs p p0 =
    let s = stats_of p and s0 = stats_of p0 in
    if p.label <> p0.label || List.map fst s <> List.map fst s0 then
      [ Fmt.str "simulated statistics of %s differ in shape from the first pass" p.label ]
    else
      List.concat
        (List.map2
           (fun (k, v) (_, v0) ->
             if v = v0 then []
             else [ Fmt.str "simulated statistic %s.%s: %d, first pass %d" p.label k v v0 ])
           s s0)
  in
  let check pass =
    if List.length pass.parts <> List.length first.parts then
      let shape = "simulated statistics differ in shape from the first pass" in
      List.map (fun p -> ({ p with wrong = true }, [ shape ])) pass.parts
    else
      List.map2
        (fun p p0 ->
          let d = diffs p p0 in
          ({ p with wrong = p.wrong || d <> [] }, d))
        pass.parts first.parts
  in
  let checked = List.concat_map check all in
  let parts = List.map fst checked and mismatches = List.concat_map snd checked in
  let reference =
    List.concat_map (fun p -> List.map (fun (k, v) -> (p.label ^ "." ^ k, v)) (stats_of p)) first.parts
  in
  let attempted = sum_int (fun p -> p.attempted) parts in
  let failed = sum_int (fun p -> if p.wrong then p.attempted else 0) parts in
  let problems = List.sort_uniq compare (List.concat_map (fun p -> p.problems) all @ mismatches) in
  List.iter (fun s -> Fmt.pr "FAIL %s@." s) problems;
  Fmt.pr "# simulated statistics: %d values per pass, digest %s, identical over %d passes: %b@."
    (List.length reference)
    (Digest.to_hex (Digest.string (Marshal.to_string reference [])))
    (List.length all) (mismatches = []);
  Fmt.pr "# host probe (%s): median %.4g ms over %d probes (nominal %g ms)@."
    (match !Probe.kind with Probe.Alloc -> "alloc" | Probe.Compare -> "compare")
    (median !Probe.samples *. 1e3) (List.length !Probe.samples) (Probe.nominal_s () *. 1e3);
  let metrics =
    if not traced then begin
      let pass_s = List.map (fun p -> p.work_s) plain in
      let rates = List.map (fun p -> float_of_int p.ops /. p.ops_s) plain in
      print_metric "setup_s" "s" (List.map fst !setups);
      print_metric "setup_wall_s" "s" (List.map snd !setups);
      print_metric "pass_s" "s" pass_s;
      print_metric "pass_wall_s" "s" (List.map (fun p -> p.wall_s) plain);
      print_metric "ops_per_s" "1/s" rates;
      List.iter
        (fun (name, _) -> print_metric name "s" (List.map (fun p -> List.assoc name p.timings) plain))
        first.timings;
      (match !workload with
      | "kernel" ->
        print_metric "kernel_steps_per_s" "1/s"
          (List.concat_map (fun p -> List.assoc "kernel_steps_per_s" p.samples) plain)
      | "serve" ->
        let rtt = sorted (List.concat_map (fun p -> List.assoc "rtt_ms" p.samples) plain) in
        print_metric "requests_per_s" "1/s" rates;
        Fmt.pr "%-22s %14.6g %-5s wall  n=%d@." "rtt_ms_p50" (quantile rtt 0.5) "ms" (Array.length rtt);
        Fmt.pr "%-22s %14.6g %-5s wall  n=%d@." "rtt_ms_p90" (quantile rtt 0.9) "ms" (Array.length rtt)
      | _ -> ());
      let bad = sum_int (fun p -> if p.wrong then p.attempted else p.refused) parts in
      Fmt.pr "%-22s %14.6g %-5s (%d of %d)@." "failed_frac"
        (float_of_int bad /. float_of_int (max 1 attempted))
        "" bad attempted;
      Fmt.pr "%-22s %14.6g %-5s mean over %d parts (%.4g MB the benchmark holds left out)@." "heap_mb"
        heap "MB" (List.length first.parts) harness_mb;
      Fmt.pr "%-22s %14.6g %-5s (likewise)@." "peak_rss_mb" rss "MB";
      [
        ("setup_s", median (List.map fst !setups), "s");
        ("pass_s", median pass_s, "s");
        ("ops_per_s", median rates, "1/s");
        ("heap_mb", heap, "MB");
      ]
    end
    else begin
      let layer_median name =
        match List.filter_map (fun p -> List.assoc_opt name p.layer) traced_passes with
        | [] -> 0.
        | xs -> median xs
      in
      let untraced = median (List.map (fun p -> p.work_s) plain) in
      let traced_s = median (List.map (fun p -> p.work_s) traced_passes) in
      let selves = Trace.self_times () in
      let per_pass = float_of_int (List.length traced_passes) in
      let value name =
        match name with
        | "sue.step_ns_p99" -> if Array.exists (fun c -> c > 0) step_hist then hist_quantile 0.99 else 0.
        | "trace.untraced_pass_s" -> untraced
        | "trace.traced_pass_s" -> traced_s
        | "trace.overhead_s" -> traced_s -. untraced
        | "trace.overhead_frac" -> (traced_s -. untraced) /. untraced
        | _ when String.starts_with ~prefix:"self." name ->
          let layer = String.sub name 5 (String.length name - 7) in
          Option.value ~default:0. (Hashtbl.find_opt selves layer) /. per_pass
        | _ -> layer_median name
      in
      let l = List.map (fun (name, unit) -> (name, value name, unit)) per_layer_metrics in
      List.iter (fun (name, v, unit) -> Fmt.pr "%-40s %16.6g %s@." name v unit) l;
      Fmt.pr "# passes: %d untraced, %d traced@." (List.length plain) (List.length traced_passes);
      (match !spans_file with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        output_string oc (Json.to_string (Trace.to_json ()));
        output_char oc '\n';
        close_out oc;
        Fmt.pr "# wrote spans to %s@." file);
      l
    end
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then Fmt.pr "FAIL a metric is not a finite number@.";
  let correct = problems = [] && failed = 0 && finite in
  let num v =
    if not (Float.is_finite v) then "0.0"
    else if Float.is_integer v && Float.abs v < 1e15 then Fmt.str "%.1f" v
    else Fmt.str "%.17g" v
  in
  Fmt.pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}@." correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Fmt.str "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics));
  exit (if correct then 0 else 1)
