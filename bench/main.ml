(* Benchmark and experiment harness.

   One driver per reproduced claim of the paper (E1-E21, indexed in
   DESIGN.md and EXPERIMENTS.md), each printing the table that supports
   it, followed by bechamel timings of the core operations.

     dune exec bench/main.exe                 all experiments + timings
     dune exec bench/main.exe -- e3 e6        selected experiments
     dune exec bench/main.exe -- timings      only the timing benches
     dune exec bench/main.exe -- snapshot --out FILE   write a validated snapshot (see EXPERIMENTS.md)
     dune exec bench/main.exe -- snapshot --check      validate the writer, write nothing
     dune exec bench/main.exe -- compare OLD.json NEW.json   regression gate on throughput *)

module Table = Sep_util.Table
module Colour = Sep_model.Colour
module Scenarios = Sep_core.Scenarios
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Separability = Sep_core.Separability
module Mutants = Sep_core.Mutants
module Randomized = Sep_core.Randomized
module Metrics = Sep_core.Metrics
module Censor = Sep_components.Censor
module Covert = Sep_components.Covert
module Snfe = Sep_snfe.Snfe
module Substrate = Sep_snfe.Substrate
module Spooler = Sep_conventional.Spooler
module Sclass = Sep_lattice.Sclass
module Fuzz = Sep_check.Fuzz
module Score = Sep_check.Score
module Monitor = Sep_core.Monitor
module Campaign = Sep_robust.Campaign
module Json = Sep_util.Json

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Best of [reps]: scheduler noise on this class of sub-second
   measurement is one-sided (contention only slows a run down), so the
   minimum is the stable estimator — the regression gate in [compare]
   depends on these numbers being reproducible. *)
let timed_best ?(reps = 3) f =
  let best = ref (timed f) in
  for _ = 2 to reps do
    let v, s = timed f in
    if s < snd !best then best := (v, s)
  done;
  !best

let per_sec n secs = if secs > 0.0 then float_of_int n /. secs else 0.0

let claim text = Fmt.pr "paper: %s@." text

let conditions_str report =
  match Separability.failing_conditions report with
  | [] -> "-"
  | cs -> String.concat "," (List.map string_of_int cs)

(* The stock scenarios plus one scaled instance: the subjects of E1, E18
   and the snapshot's experiments, kernel_runs and monitor sections. *)
let snapshot_scenarios () =
  Scenarios.all @ [ Scenarios.scaled ~regimes:2 ~counter_bits:3 ]

(* The kernel input schedule of the stepping benches: every tenth step
   offers the next non-empty input word of the instance's alphabet. *)
let schedule (inst : Scenarios.instance) =
  let alphabet = Array.of_list inst.Scenarios.alphabet in
  fun n ->
    if Array.length alphabet > 1 && n mod 10 = 0 then
      alphabet.((n / 10) mod (Array.length alphabet - 1) + 1)
    else []

(* -- E1: the six conditions hold for the correct kernel --------------------- *)

(* The exhaustive check of every snapshot scenario, best-of-3 wall clock:
   E1 and the experiments section. *)
let check_scenarios () =
  List.map
    (fun (inst : Scenarios.instance) ->
      let report, secs =
        timed_best (fun () ->
            Separability.check (Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg))
      in
      (inst.Scenarios.label, report, secs))
    (snapshot_scenarios ())

let e1 () =
  claim
    "\"Proof of Separability\" verifies a correct separation kernel: the six conditions of the \
     Appendix hold in every reachable state.";
  let t = Table.create ~title:"E1: exhaustive Proof of Separability, correct kernels"
      ~columns:[ "instance"; "states"; "checks"; "verdict"; "seconds" ] in
  List.iter
    (fun (label, report, secs) ->
      Table.add_row t
        [
          label;
          string_of_int report.Separability.states;
          string_of_int report.Separability.checks;
          (if Separability.verified report then "VERIFIED" else "FAILED " ^ conditions_str report);
          Fmt.str "%.2f" secs;
        ])
    (check_scenarios ());
  Table.print t

(* -- E2: the separation kernel is small and policy-free ---------------------- *)

(* Regimes that trap at every instruction, so every kernel step is a SWAP. *)
let spin_config colours =
  let spin = [ Sep_hw.Isa.Label "s"; Sep_hw.Isa.Instr (Sep_hw.Isa.Trap 0); Sep_hw.Isa.Branch "s" ] in
  Config.make
    ~regimes:
      (List.map (fun colour -> { Config.colour; part_size = 8; program = spin; devices = [] }) colours)
    ~channels:[] ()

let e2 () =
  claim
    "the SUE \"is indeed small and simple... about 5K words\"; a separation kernel knows nothing \
     of the security policy, while a conventional kernel must mediate everything.";
  let sue = Metrics.sue_profile Scenarios.pipeline.Scenarios.cfg in
  let conv = Metrics.conventional_profile in
  let spool_jobs =
    [
      { Spooler.owner = "a"; level = Sclass.unclassified; text = "m" };
      { Spooler.owner = "b"; level = Sclass.secret; text = "p" };
    ]
  in
  let outcome = Spooler.run ~trusted:true ~jobs:spool_jobs in
  let loc path = match Metrics.loc_of_file path with Some n -> string_of_int n | None -> "n/a" in
  let t = Table.create ~title:"E2: kernel comparison"
      ~columns:[ "metric"; "separation kernel (SUE)"; "conventional kernel" ] in
  Table.add_row t [ "knows the security policy"; "no"; "yes" ];
  Table.add_row t [ "kernel entry points"; string_of_int (List.length sue.Metrics.services);
                    string_of_int Sep_conventional.Kernel.syscall_surface ];
  Table.add_row t [ "services"; String.concat ", " sue.Metrics.services; String.concat ", " conv.Metrics.services ];
  Table.add_row t
    [ "resident kernel data (words)";
      (match sue.Metrics.kernel_words with Some w -> string_of_int w | None -> "n/a");
      "unbounded (PCB/object tables)" ];
  Table.add_row t [ "mediates I/O"; "no (devices owned by regimes)"; "yes" ];
  Table.add_row t
    [ "policy decisions in spooler run"; "0";
      string_of_int outcome.Spooler.kernel_stats.Sep_conventional.Kernel.mediated_calls ];
  Table.add_row t [ "trusted processes required"; "0"; "1 (the spooler)" ];
  Table.add_row t [ "implementation (source lines)"; loc "lib/core/sue.ml"; loc "lib/conventional/kernel.ml" ];
  Table.add_row t
    [ "as machine code (words, 2 regimes)";
      string_of_int (Sue.kernel_code_words (Sue.build ~impl:Sue.Assembly Scenarios.pipeline.Scenarios.cfg));
      "n/a" ];
  Table.add_row t [ "verification"; sue.Metrics.verification; conv.Metrics.verification ];
  Table.print t;
  (* the cost of sharing one processor: kernel step throughput as the
     number of hosted regimes grows (every step is a SWAP here) *)
  let t2 = Table.create ~title:"E2b: kernel step cost vs hosted regimes (spin regimes, SWAP every step)"
      ~columns:[ "regimes"; "kernel words"; "steps/second" ] in
  List.iter
    (fun n ->
      let kernel = Sue.build (spin_config (List.init n Colour.of_index)) in
      let iters = 200_000 in
      let (), secs = timed (fun () -> for _ = 1 to iters do ignore (Sue.step kernel []) done) in
      Table.add_row t2
        [
          string_of_int n;
          string_of_int (Sue.kernel_words kernel);
          Fmt.str "%.0f" (float_of_int iters /. secs);
        ])
    [ 2; 4; 8; 16 ];
  Table.print t2

(* -- E3: IFA cannot verify SWAP; Proof of Separability can ------------------- *)

let e3 () =
  claim
    "\"IFA cannot verify the security of a SWAP operation, even though it is manifestly secure\" \
     — only the tautological per-regime specification certifies; PoS verifies the real thing.";
  let t = Table.create ~title:"E3: verification technique vs the SWAP operation"
      ~columns:[ "program / system"; "semantically secure"; "IFA (syntactic)"; "taint (dynamic)"; "PoS" ] in
  List.iter
    (fun (case : Sep_ifa.Programs.case) ->
      let cert = Sep_ifa.Certify.secure case.Sep_ifa.Programs.env case.Sep_ifa.Programs.program in
      let taint =
        (Sep_ifa.Taint.run ~env:case.Sep_ifa.Programs.env case.Sep_ifa.Programs.store
           case.Sep_ifa.Programs.program)
          .Sep_ifa.Taint.violations = []
      in
      Table.add_row t
        [
          case.Sep_ifa.Programs.name;
          (if case.Sep_ifa.Programs.expect_secure then "yes" else "no");
          (if cert then "certified" else "rejected");
          (if taint then "clean" else "flagged");
          "-";
        ])
    Sep_ifa.Programs.all;
  (* the machine-level SWAP, verified by PoS as part of the kernel *)
  let inst = Scenarios.pipeline in
  let report = Separability.check (Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg) in
  Table.add_row t
    [
      "machine-level SWAP (in-kernel)";
      "yes";
      "rejected (reads RED and BLACK)";
      "flagged";
      (if Separability.verified report then "VERIFIED" else "FAILED");
    ];
  Table.print t

(* -- E4: each condition has discriminating power ------------------------------ *)

let e4 () =
  claim
    "the six conditions are \"exactly the right conditions\": every seeded kernel flaw is caught, \
     by the predicted condition, both exhaustively and by randomized checking.";
  let t = Table.create ~title:"E4: seeded kernel bugs vs the six conditions"
      ~columns:[ "bug"; "scenario"; "predicted"; "exhaustive"; "randomized"; "caught" ] in
  let all_ok = ref true in
  List.iter
    (fun (e : Mutants.expectation) ->
      let exh = Mutants.run e in
      let rnd =
        Randomized.check ~bugs:[ e.Mutants.bug ] ~seed:4242
          ~inputs:e.Mutants.scenario.Scenarios.alphabet e.Mutants.scenario.Scenarios.cfg
      in
      let caught = Mutants.detected e exh && Mutants.detected e rnd in
      if not caught then all_ok := false;
      Table.add_row t
        [
          Fmt.str "%a" Sue.pp_bug e.Mutants.bug;
          e.Mutants.scenario.Scenarios.label;
          string_of_int e.Mutants.primary;
          conditions_str exh;
          conditions_str rnd;
          (if caught then "yes" else "NO");
        ])
    Mutants.catalogue;
  Table.print t;
  Fmt.pr "all mutants caught by the predicted condition: %b@.@." !all_ok

(* -- E5: wire-cutting ---------------------------------------------------------- *)

let e5 () =
  claim
    "\"if we cut the communication channels that are allowed, then, provided there are no illicit \
     channels present, the components become completely isolated\" — the cut system verifies; \
     the uncut one is flagged through the shared buffer.";
  let inst = Scenarios.pipeline in
  let t = Table.create ~title:"E5: the wire-cutting transformation"
      ~columns:[ "system"; "channels"; "verdict"; "violated conditions" ] in
  let row label cfg =
    let report = Separability.check (Sue.to_system ~inputs:inst.Scenarios.alphabet cfg) in
    Table.add_row t
      [
        label;
        (if List.for_all (fun c -> c.Config.cut) cfg.Config.channels then "cut" else "shared");
        (if Separability.verified report then "VERIFIED (isolated)" else "FAILED");
        conditions_str report;
      ]
  in
  row "pipeline, wires cut" (Config.cut_all inst.Scenarios.cfg);
  row "pipeline, wires intact" (Config.cut_none inst.Scenarios.cfg);
  (* an illicit channel in a supposedly-cut system: the uncut-channel mutant *)
  let report =
    Separability.check
      (Sue.to_system ~bugs:[ Sue.Uncut_channel ] ~inputs:inst.Scenarios.alphabet
         (Config.cut_all inst.Scenarios.cfg))
  in
  Table.add_row t
    [
      "claimed cut, actually connected";
      "illicit";
      (if Separability.verified report then "VERIFIED?!" else "FAILED (illicit channel found)");
      conditions_str report;
    ];
  Table.print t

(* -- E6: censor vs covert bandwidth --------------------------------------------- *)

let e6 () =
  claim
    "\"a fairly simple censor can reduce the bandwidth available for illicit communication over \
     the bypass to an acceptable level\".";
  let t = Table.create
      ~title:"E6: covert bits reliably recovered per bypass message (200 messages, max_len=32, quantum=8)"
      ~columns:[ "leak vector"; "no censor"; "basic censor"; "strict censor" ] in
  List.iter
    (fun vector ->
      let cell mode =
        let b = Snfe.measure_covert ~vector ~mode ~messages:200 ~seed:1981 () in
        Fmt.str "%.2f" b.Snfe.bits_per_message
      in
      Table.add_row t
        [
          Fmt.str "%a" Covert.pp_vector vector;
          cell Censor.Off;
          cell Censor.Basic;
          cell Censor.Strict;
        ])
    [ Covert.Pad_field; Covert.Length_raw; Covert.Length_bucket ];
  Table.print t

(* -- E7: the kernel is indistinguishable from the distributed system ------------- *)

let e7 () =
  claim
    "the kernel provides each component \"an environment which is indistinguishable from that \
     which would be provided by a truly and physically distributed system\".";
  let t = Table.create ~title:"E7: per-component observable traces, kernelized vs distributed"
      ~columns:[ "scenario"; "components"; "trace events"; "identical" ] in
  let compare_traces label topo ~steps ~externals =
    let net = Sep_distributed.Net.build topo in
    let kernel = Sep_core.Regime_kernel.build topo in
    Sep_distributed.Net.run net ~steps ~externals;
    Sep_core.Regime_kernel.run kernel ~steps ~externals;
    let cols = Sep_model.Topology.colours topo in
    let events = ref 0 in
    let equal =
      List.for_all
        (fun c ->
          let a = Sep_distributed.Net.trace net c in
          events := !events + List.length a;
          a = Sep_core.Regime_kernel.trace kernel c)
        cols
    in
    Table.add_row t
      [ label; string_of_int (List.length cols); string_of_int !events; (if equal then "yes" else "NO") ]
  in
  compare_traces "snfe duplex" (Snfe.topology Snfe.default_config) ~steps:30 ~externals:(fun n ->
      if n < 5 then [ (Snfe.red, Fmt.str "host packet %d" n) ]
      else if n = 6 then [ (Snfe.black, "PKT HDR seq=0 len=2|2|aabb") ]
      else []);
  compare_traces "mls system" (Sep_apps.Mls.topology ()) ~steps:40 ~externals:(fun n ->
      List.filter_map (fun (s, c, m) -> if s = n then Some (c, m) else None) Sep_apps.Mls.demo_script);
  compare_traces "accat guard" (Sep_apps.Guard_app.topology ()) ~steps:25 ~externals:(fun n ->
      List.filter_map
        (fun (s, c, m) -> if s = n then Some (c, m) else None)
        Sep_apps.Guard_app.demo_script);
  Table.print t;
  let kernel = Sep_core.Regime_kernel.build (Snfe.topology Snfe.default_config) in
  Sep_core.Regime_kernel.run kernel ~steps:30 ~externals:(fun n ->
      if n < 5 then [ (Snfe.red, Fmt.str "host packet %d" n) ] else []);
  Fmt.pr "kernel bookkeeping for the snfe run: %d context switches, %d channel copies@."
    (Sep_core.Regime_kernel.context_switches kernel)
    (Sep_core.Regime_kernel.messages_copied kernel);
  (* the check has teeth: a kernel that fails at its one job is caught *)
  let topo = Snfe.topology Snfe.default_config in
  let externals n = if n < 5 then [ (Snfe.red, Fmt.str "pkt%d" n) ] else [] in
  List.iter
    (fun bug ->
      let net = Sep_distributed.Net.build topo in
      let k = Sep_core.Regime_kernel.build ~bugs:[ bug ] topo in
      Sep_distributed.Net.run net ~steps:25 ~externals;
      Sep_core.Regime_kernel.run k ~steps:25 ~externals;
      let equal =
        List.for_all
          (fun c -> Sep_distributed.Net.trace net c = Sep_core.Regime_kernel.trace k c)
          (Sep_model.Topology.colours topo)
      in
      Fmt.pr "buggy kernel (%a): %s@." Sep_core.Regime_kernel.pp_bug bug
        (if equal then "NOT DETECTED?!" else "detected by trace divergence"))
    Sep_core.Regime_kernel.all_bugs;
  Fmt.pr "@."

(* -- E8: the guard ----------------------------------------------------------------- *)

let e8 () =
  claim
    "\"messages from the LOW system to the HIGH one are allowed through the Guard without \
     hindrance, but messages from HIGH to LOW must be displayed to a human Security Watch \
     Officer\".";
  let t = Table.create ~title:"E8: ACCAT guard flows (demo script, both substrates)"
      ~columns:[ "substrate"; "low->high passed"; "reviewed"; "released"; "denied"; "denied text at LOW" ] in
  List.iter
    (fun kind ->
      let r = Sep_apps.Guard_app.run kind Sep_apps.Guard_app.demo_script in
      let s = r.Sep_apps.Guard_app.stats in
      let leaked = List.mem "secret: submarine positions" r.Sep_apps.Guard_app.low_screen in
      Table.add_row t
        [
          Fmt.str "%a" Substrate.pp_kind kind;
          string_of_int s.Sep_components.Guard.passed_up;
          string_of_int s.Sep_components.Guard.reviewed;
          string_of_int s.Sep_components.Guard.released;
          string_of_int s.Sep_components.Guard.denied;
          (if leaked then "LEAKED" else "absent");
        ])
    Substrate.both;
  Table.print t

(* -- E9: the spooler dilemma --------------------------------------------------------- *)

let e9 () =
  claim
    "\"the spooler cannot delete spool files after their contents have been printed\" on a \
     conventional kernel without becoming a trusted process; the separation design needs no \
     exemption anywhere.";
  let jobs =
    [
      { Spooler.owner = "alice"; level = Sclass.unclassified; text = "memo" };
      { Spooler.owner = "bob"; level = Sclass.secret; text = "plans" };
      { Spooler.owner = "carol"; level = Sclass.unclassified; text = "note" };
    ]
  in
  let t = Table.create ~title:"E9: printing with cleanup, three designs"
      ~columns:[ "design"; "jobs printed"; "spool files left"; "policy exemptions used" ] in
  let conv trusted =
    let o = Spooler.run ~trusted ~jobs in
    Table.add_row t
      [
        Fmt.str "conventional kernel, %s spooler" (if trusted then "trusted" else "untrusted");
        string_of_int o.Spooler.jobs_printed;
        string_of_int o.Spooler.spool_files_left;
        string_of_int o.Spooler.trust_exercised;
      ]
  in
  conv false;
  conv true;
  let r = Sep_apps.Mls.run Substrate.Kernelized Sep_apps.Mls.demo_script in
  let printed =
    List.length
      (List.filter (fun l -> Sep_components.Protocol.verb l = "BANNER") r.Sep_apps.Mls.printer_output)
  in
  Table.add_row t
    [
      "separation kernel + printer server";
      string_of_int printed;
      string_of_int (List.length r.Sep_apps.Mls.spool_files_left);
      "0 (privileged wire is part of the design)";
    ];
  Table.print t

(* -- E10: checking cost vs instance size ----------------------------------------------- *)

let e10 () =
  claim
    "exhaustive Proof of Separability is decidable but grows with the state space; randomized \
     checking scales to larger instances at the price of completeness.";
  let t = Table.create ~title:"E10a: exhaustive checking cost vs instance size"
      ~columns:[ "instance"; "regimes"; "counter bits"; "states"; "checks"; "seconds" ] in
  List.iter
    (fun (regimes, bits) ->
      let inst = Scenarios.scaled ~regimes ~counter_bits:bits in
      let report, secs =
        timed (fun () ->
            Separability.check ~state_limit:2_000_000
              (Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg))
      in
      Table.add_row t
        [
          inst.Scenarios.label;
          string_of_int regimes;
          string_of_int bits;
          string_of_int report.Separability.states;
          string_of_int report.Separability.checks;
          Fmt.str "%.3f" secs;
        ])
    [ (2, 1); (2, 2); (2, 4); (2, 6); (3, 2); (3, 3) ];
  Table.print t;
  let t2 = Table.create ~title:"E10b: randomized checking cost on the pipeline instance"
      ~columns:[ "walks"; "walk length"; "sampled states"; "checks"; "seconds"; "verdict" ] in
  List.iter
    (fun (walks, walk_len) ->
      let params = { Randomized.walks; walk_len; scrambles = 2 } in
      let inst = Scenarios.pipeline in
      let report, secs =
        timed (fun () ->
            Randomized.check ~params ~seed:7 ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg)
      in
      Table.add_row t2
        [
          string_of_int walks;
          string_of_int walk_len;
          string_of_int report.Separability.states;
          string_of_int report.Separability.checks;
          Fmt.str "%.3f" secs;
          (if Separability.verified report then "VERIFIED" else "FAILED");
        ])
    [ (4, 32); (8, 64); (16, 128); (32, 256) ];
  Table.print t2;
  (* ablation: the bucketing strategy vs the textbook pairwise quantification *)
  let t3 = Table.create ~title:"E10c: checker ablation — bucketed vs pairwise (same sample, same verdict)"
      ~columns:[ "sampled states"; "bucketed s"; "pairwise s"; "verdicts agree" ] in
  List.iter
    (fun walks ->
      let inst = Scenarios.pipeline in
      let params = { Randomized.walks; walk_len = 48; scrambles = 1 } in
      let states =
        Randomized.sample_states ~params ~seed:7 ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg
      in
      let sys = Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
      let fast, fast_s = timed (fun () -> Separability.check_states sys states) in
      let slow, slow_s = timed (fun () -> Separability.check_states_pairwise sys states) in
      Table.add_row t3
        [
          string_of_int (List.length states);
          Fmt.str "%.3f" fast_s;
          Fmt.str "%.3f" slow_s;
          string_of_bool (Separability.verified fast = Separability.verified slow);
        ])
    [ 2; 4; 8 ];
  Table.print t3

(* -- E11: state-based verification vs black-box testing --------------------------------- *)

let e11 () =
  claim
    "\"it cannot be proven with existing techniques that there is no way to circumvent that \
     piece of software\" (Robinson) — finite I/O testing of the paper's own security definition \
     misses kernel flaws that the six state-based conditions catch.";
  let inst = Scenarios.pipeline in
  let ni bugs =
    let sys = Sue.to_system ~bugs ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
    let t = Sue.build ~bugs inst.Scenarios.cfg in
    Sep_core.Noninterference.check ~prng:(Sep_util.Prng.create 1981) ~trials:40 ~word_len:60
      ~splice:(Sep_core.Noninterference.sue_splice t) sys
  in
  let t = Table.create
      ~title:"E11: detection by Proof of Separability vs black-box noninterference testing \
              (pipeline scenario; 40 trials x 60 steps per colour)"
      ~columns:[ "kernel"; "PoS verdict"; "I/O-testing verdict" ] in
  let row label bugs =
    let pos = Separability.check (Sue.to_system ~bugs ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg) in
    let nir = ni bugs in
    Table.add_row t
      [
        label;
        (if Separability.verified pos then "VERIFIED" else "FAILED " ^ conditions_str pos);
        (if Sep_core.Noninterference.interference_free nir then "no divergence observed"
         else Fmt.str "INTERFERENCE (%d trials)" (List.length nir.Sep_core.Noninterference.failures));
      ]
  in
  row "correct kernel" [];
  List.iter
    (fun (e : Mutants.expectation) ->
      if e.Mutants.scenario.Scenarios.label = inst.Scenarios.label then
        row (Fmt.str "%a" Sue.pp_bug e.Mutants.bug) [ e.Mutants.bug ])
    Mutants.catalogue;
  Table.print t

(* -- E12: components vs the SRI multilevel model ----------------------------------------- *)

let e12 () =
  claim
    "\"Ordinary programs, such as the SOM or a file-server, are sound interpretations of this \
     model. But a kernel is different\" — and so is the Guard, whose function is a sanctioned \
     downgrade no multilevel policy describes.";
  let prng = Sep_util.Prng.create 1977 in
  let run name machine alphabet ~expect =
    let report =
      Sep_policy.Mls_model.check ~prng ~trials:60 ~word_len:14 ~alphabet
        ~levels:Sep_apps.Sri_checks.levels machine
    in
    let verdict = Sep_policy.Mls_model.secure report in
    Fmt.pr "%s: %s (expected: %s)@." name
      (if verdict then "multilevel secure under the SRI model" else "NOT multilevel secure")
      expect;
    verdict
  in
  let fs_ok =
    run "file server"
      (Sep_apps.Sri_checks.file_server_machine ())
      Sep_apps.Sri_checks.file_server_alphabet ~expect:"secure — the model fits this component"
  in
  let guard_ok =
    run "accat guard"
      (Sep_apps.Sri_checks.guard_machine ())
      Sep_apps.Sri_checks.guard_alphabet
      ~expect:"INSECURE by design — reviewed release is a downgrade"
  in
  Fmt.pr "paper's per-component thesis reproduced: %b@.@." (fs_ok && not guard_ok)

(* -- E13: the kernel as machine code ------------------------------------------------------ *)

let e13 () =
  claim
    "\"it would be vastly more difficult and hugely expensive to verify the correctness of its \
     implementation as well\" (of KSOS, whose code got only 'illustrative' proofs) — here the \
     kernel IS machine code on the simulated hardware, and the six conditions are checked over \
     it directly.";
  let t = Table.create ~title:"E13: Proof of Separability over the kernel implementation"
      ~columns:[ "instance"; "kernel"; "code words"; "states"; "checks"; "verdict"; "seconds" ] in
  List.iter
    (fun (inst : Scenarios.instance) ->
      List.iter
        (fun impl ->
          let built = Sue.build ~impl inst.Scenarios.cfg in
          let report, secs =
            timed (fun () ->
                Separability.check ~state_limit:3_000_000
                  (Sue.to_system ~impl ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg))
          in
          Table.add_row t
            [
              inst.Scenarios.label;
              Fmt.str "%a" Sue.pp_impl impl;
              (match Sue.kernel_code_words built with 0 -> "-" | n -> string_of_int n);
              string_of_int report.Separability.states;
              string_of_int report.Separability.checks;
              (if Separability.verified report then "VERIFIED" else "FAILED " ^ conditions_str report);
              Fmt.str "%.2f" secs;
            ])
        [ Sue.Microcode; Sue.Assembly ])
    [ Scenarios.interrupt; Scenarios.snfe_micro; Scenarios.pipeline ];
  Table.print t;
  let all_caught =
    List.for_all
      (fun (e : Mutants.expectation) ->
        Mutants.detected e
          (Separability.check ~max_failures:3
             (Sue.to_system ~impl:Sue.Assembly ~bugs:[ e.Mutants.bug ]
                ~inputs:e.Mutants.scenario.Scenarios.alphabet e.Mutants.scenario.Scenarios.cfg)))
      Mutants.catalogue
  in
  Fmt.pr
    "all 8 seeded bugs caught in the machine-code kernel by their predicted conditions: %b@.@."
    all_caught

(* -- E14: fault containment --------------------------------------------------------------- *)

(* The seed-42 fault campaign (200 steps, 40 plans per scenario) and the
   distributed wire-tamper baseline: E14 and the fault_campaign section. *)
let fault_campaign () =
  let report, secs = timed (fun () -> Campaign.run ~seed:42 ~steps:200 ~count:40 ()) in
  (report, secs, Campaign.run_distributed ~seed:42 ~steps:40 ~count:20)

(* The same campaign under a recovery supervisor, with 20 three-fault
   plans added per scenario: E16a and the recovery section. *)
let recovery_campaign () =
  timed (fun () -> Campaign.run_recovery ~seed:42 ~steps:200 ~count:40 ())

(* One row per scenario: the counts [columns] picks from the (masked,
   detected-safe, recovered-safe, violating) tally, then the watchdog. *)
let campaign_rows t (report : Campaign.report) columns =
  List.iter
    (fun (sr : Campaign.scenario_report) ->
      let tally =
        Campaign.tally (List.map (fun (c : Campaign.case) -> c.Campaign.outcome) sr.Campaign.cases)
      in
      Table.add_row t
        ((sr.Campaign.label :: List.map string_of_int (columns tally))
        @ [ (match sr.Campaign.watchdog with Some w -> string_of_int w | None -> "-") ]))
    report.Campaign.rp_scenarios

let e14 () =
  claim
    "in the distributed ideal a hardware fault inside one box cannot corrupt another box — the \
     kernelized system inherits that fault containment: no injected single fault perturbs another \
     colour's observable trace, and corrupted kernel state is detected and parked, not trusted.";
  let report, secs, dist = fault_campaign () in
  let t = Table.create ~title:"E14: fault-injection campaign (seed 42, 200 steps, 40 faults/scenario)"
      ~columns:[ "scenario"; "masked"; "detected-safe"; "violating"; "watchdog" ] in
  (* E14 runs without a supervisor: no recovered-safe column *)
  campaign_rows t report (fun (m, d, _, v) -> [ m; d; v ]);
  Table.add_row t
    [ "distributed (wire tamper)"; "-"; "-"; (if dist.Campaign.dr_contained then "0" else "!"); "-" ];
  Table.print t;
  let masked, detected, _, violating = Campaign.totals report in
  Fmt.pr "%d cases in %.2fs: %d masked, %d detected-safe, %d violating; containment holds: %b@.@."
    (masked + detected + violating) secs masked detected violating
    (Campaign.holds report && dist.Campaign.dr_contained)

(* -- E15: property-based verification and coverage-guided fuzzing -------------------------- *)

let fuzz_seed = 42 and fuzz_budget = 480

(* The coverage-guided fuzz of every stock scenario, then each seeded bug
   under the exhaustive, randomized and coverage-guided strategies, each
   run with its wall clock: E15 and the fuzz section. *)
let fuzz_measure () =
  let seed = fuzz_seed and budget = fuzz_budget in
  let scenarios =
    List.map
      (fun (inst : Scenarios.instance) ->
        (inst.Scenarios.label, timed (fun () -> Fuzz.fuzz_scenario ~seed ~budget inst)))
      Scenarios.all
  in
  let kills =
    List.concat_map
      (fun e ->
        List.map timed
          [
            (fun () -> Score.exhaustive_kill e);
            (fun () -> Score.randomized_kill ~seed e);
            (fun () -> Score.coverage_kill ~seed ~budget e);
          ])
      Mutants.catalogue
  in
  (scenarios, kills)

let e15 () =
  claim
    "the six conditions are a checkable specification, not just a proof outline: a coverage-guided \
     fuzzer finds no violation in the correct kernel, and every seeded bug is killed — by its \
     predicted condition — under exhaustive, randomized and coverage-guided checking alike.";
  let scenarios, kills = fuzz_measure () in
  let t = Table.create
      ~title:(Fmt.str "E15a: coverage-guided fuzz of the correct kernel (seed %d, budget %d)"
                fuzz_seed fuzz_budget)
      ~columns:[ "scenario"; "execs"; "corpus"; "coverage keys"; "failures"; "seconds" ] in
  List.iter
    (fun (label, (r, secs)) ->
      Table.add_row t
        [
          label;
          string_of_int r.Fuzz.sr_campaign.Fuzz.cp_execs;
          string_of_int (List.length r.Fuzz.sr_campaign.Fuzz.cp_entries);
          string_of_int (List.length r.Fuzz.sr_campaign.Fuzz.cp_keys);
          string_of_int (List.length r.Fuzz.sr_failures);
          Fmt.str "%.2f" secs;
        ])
    scenarios;
  Table.print t;
  let t2 = Table.create
      ~title:(Fmt.str "E15b: mutant kill rate per checking strategy (seed %d, budget %d)"
                fuzz_seed fuzz_budget)
      ~columns:[ "bug"; "strategy"; "killed"; "cond"; "states"; "execs"; "instrs"; "seconds" ] in
  List.iter
    (fun (k, secs) ->
      Table.add_row t2
        [
          Score.bug_name k.Score.kl_bug;
          Score.strategy_name k.Score.kl_strategy;
          (if k.Score.kl_detected then "yes" else "NO");
          string_of_int k.Score.kl_condition;
          string_of_int k.Score.kl_states;
          string_of_int k.Score.kl_execs;
          (match k.Score.kl_workload with
          | Some w -> string_of_int (Score.workload_instrs w)
          | None -> "-");
          Fmt.str "%.3f" secs;
        ])
    kills;
  Table.print t2;
  Fmt.pr "all mutants killed under every strategy: %b@.@."
    (List.for_all (fun (k, _) -> k.Score.kl_detected) kills)

(* -- E16: fail-operational recovery --------------------------------------------------------- *)

let e16 () =
  claim
    "recovery preserves separability: a supervisor that restarts parked regimes from checkpoints \
     and warm-reboots a panicked kernel turns every detected fault into a recovered-safe outcome \
     without ever perturbing another colour's observable trace across the restart boundary — and \
     the kernel still pins against the distributed ideal when the ideal's wires drop, duplicate \
     and reorder frames under the reliable-channel protocol.";
  let report, secs = recovery_campaign () in
  let t = Table.create
      ~title:"E16a: recovery campaign (seed 42, 200 steps, 40 single- + 20 multi-fault plans/scenario)"
      ~columns:[ "scenario"; "masked"; "detected-safe"; "recovered-safe"; "violating"; "watchdog" ] in
  campaign_rows t report (fun (m, d, r, v) -> [ m; d; r; v ]);
  Table.print t;
  let masked, detected, recovered, violating = Campaign.totals report in
  Fmt.pr "%d cases in %.2fs: %d masked, %d detected-safe, %d recovered-safe, %d violating; holds: %b@.@."
    (masked + detected + recovered + violating) secs masked detected recovered violating
    (Campaign.holds report);
  let t2 = Table.create ~title:"E16b: kernel vs. reliable net over a lossy link (seed 42, 150 steps)"
      ~columns:[ "drop %"; "cases"; "delivered"; "retransmits"; "acks"; "backoff hits"; "mismatches"; "seconds" ] in
  List.iter
    (fun drop ->
      let link = { Sep_distributed.Net.default_link_model with Sep_distributed.Net.lm_drop = drop } in
      let rel, rsecs =
        timed (fun () -> Sep_check.Diff.kernel_vs_reliable_net ~link ~seed:42 ~cases:4 ~steps:150 ())
      in
      let sum f = List.fold_left (fun n rc -> n + f rc) 0 rel in
      Table.add_row t2
        [
          string_of_int drop;
          string_of_int (List.length rel);
          string_of_int (sum (fun rc -> rc.Sep_check.Diff.rc_delivered));
          string_of_int
            (sum (fun rc -> rc.Sep_check.Diff.rc_stats.Sep_distributed.Net.ls_retransmits));
          string_of_int (sum (fun rc -> rc.Sep_check.Diff.rc_stats.Sep_distributed.Net.ls_acks));
          string_of_int
            (sum (fun rc -> rc.Sep_check.Diff.rc_stats.Sep_distributed.Net.ls_backoff_ceiling));
          string_of_int (sum (fun rc -> List.length rc.Sep_check.Diff.rc_mismatches));
          Fmt.str "%.2f" rsecs;
        ])
    [ 10; 25 ];
  Table.print t2

let e17 () =
  claim
    "verification is embarrassingly parallel without losing reproducibility: the work-sharded \
     executor splits a fixed work list over OCaml domains, derives each task's randomness from \
     (seed, task index) and merges results in canonical order, so campaigns, fuzzing and \
     randomized walks produce byte-identical reports at any -j while the wall clock scales with \
     the cores the machine actually has.";
  let jobs = Sep_par.Par.default_jobs () in
  Fmt.pr "recommended domain count on this machine: %d@.@." jobs;
  let t =
    Table.create ~title:(Fmt.str "E17: parallel speedup, -j 1 vs -j %d (seed 42)" jobs)
      ~columns:[ "driver"; "seconds -j1"; Fmt.str "seconds -j%d" jobs; "speedup"; "identical" ]
  in
  let row name run render =
    let r1, s1 = timed (fun () -> run 1) in
    let rn, sn = timed (fun () -> run jobs) in
    Table.add_row t
      [
        name;
        Fmt.str "%.2f" s1;
        Fmt.str "%.2f" sn;
        Fmt.str "%.2fx" (if sn > 0.0 then s1 /. sn else 0.0);
        (if String.equal (render r1) (render rn) then "yes" else "NO");
      ]
  in
  row "fault campaign (200 steps, 40 plans/scenario)"
    (fun jobs -> Campaign.run ~jobs ~seed:42 ~steps:200 ~count:40 ())
    Campaign.report_to_jsonl;
  row "recovery campaign (200 steps, 40 plans/scenario)"
    (fun jobs -> Campaign.run_recovery ~jobs ~seed:42 ~steps:200 ~count:40 ())
    Campaign.report_to_jsonl;
  row "fuzz pipeline (budget 60)"
    (fun jobs -> Fuzz.fuzz_scenario ~jobs ~seed:42 ~budget:60 Scenarios.pipeline)
    Fuzz.scenario_result_to_jsonl;
  row "randomized walks (32 x 64, pipeline)"
    (fun jobs ->
      Sep_core.Randomized.check ~jobs
        ~params:{ Sep_core.Randomized.walks = 32; walk_len = 64; scrambles = 2 }
        ~seed:42 ~inputs:Scenarios.pipeline.Scenarios.alphabet Scenarios.pipeline.Scenarios.cfg)
    (fun r -> Fmt.str "%a" Separability.pp_report r);
  Table.print t

(* -- E18: online monitor overhead --------------------------------------------- *)

type monitor_overhead = {
  mo_label : string;
  mo_steps : int;
  mo_period : int;
  mo_bare : float;  (** best-of-reps seconds without a watch *)
  mo_watched : float;  (** best-of-reps seconds with the watch attached *)
  mo_deep : int;  (** observations that escalated to a deep check *)
  mo_clean : bool;  (** the watch saw no violation (a correct kernel must) *)
}

(* The 5000-step microcode stepping bench, bare vs with a [Monitor.watch]
   attached (period 1000); best of 21 runs for each side, because the loop
   itself takes only a few milliseconds and the gate below quotes a ratio. *)
let measure_monitor_overhead (inst : Scenarios.instance) =
  let steps = 5_000 and period = 1_000 and reps = 21 in
  let inputs = schedule inst in
  let run watched =
    let t = Sue.build ~impl:Sue.Microcode inst.Scenarios.cfg in
    let w = if watched then Some (Monitor.watch ~period ~inputs:inst.Scenarios.alphabet t) else None in
    let (), secs =
      timed (fun () ->
          for n = 0 to steps - 1 do
            ignore (Sue.step t (inputs n));
            match w with Some w -> Monitor.observe w | None -> ()
          done)
    in
    (secs, w)
  in
  let best watched =
    let results = List.init reps (fun _ -> run watched) in
    List.fold_left (fun (bs, bw) (s, w) -> if s < bs then (s, w) else (bs, bw)) (List.hd results)
      (List.tl results)
  in
  let bare, _ = best false in
  let watched, w = best true in
  let w = Option.get w in
  {
    mo_label = inst.Scenarios.label;
    mo_steps = steps;
    mo_period = period;
    mo_bare = bare;
    mo_watched = watched;
    mo_deep = Monitor.deep_checks w;
    mo_clean = Monitor.watch_first_violation w = None;
  }

let overhead_frac r = if r.mo_bare > 0.0 then (r.mo_watched -. r.mo_bare) /. r.mo_bare else 0.0

let e18 () =
  claim
    "the six conditions can be checked online: an incremental monitor (one bucket scan per \
     colour and state) rides along a live kernel — a cheap audit probe every step, a deep check on \
     audit activity or every period steps — flagging a violation at the step it occurs while the \
     stepping loop keeps most of its bare throughput.";
  let t =
    Table.create
      ~title:"E18: online monitor amortized overhead (5000-step microcode run, period 1000, best of 21)"
      ~columns:[ "instance"; "steps/s bare"; "steps/s watched"; "overhead"; "deep checks"; "clean" ]
  in
  List.iter
    (fun inst ->
      let r = measure_monitor_overhead inst in
      let rate secs = if secs > 0.0 then Fmt.str "%.0f" (float_of_int r.mo_steps /. secs) else "-" in
      Table.add_row t
        [
          r.mo_label;
          rate r.mo_bare;
          rate r.mo_watched;
          Fmt.str "%.1f%%" (100.0 *. overhead_frac r);
          string_of_int r.mo_deep;
          (if r.mo_clean then "yes" else "NO");
        ])
    (snapshot_scenarios ());
  Table.print t

(* -- E19: the kernel federation ------------------------------------------------ *)

(* One federated run: sustained throughput (words carried shard-to-shard
   per second of wall clock) and the end-to-end word latency histogram of
   the inter-shard links, clean and under a directed node-fault plan. *)
type fed_measure = {
  fm_label : string;
  fm_faulty : bool;
  fm_steps : int;
  fm_seconds : float;
  fm_delivered : int;
  fm_words_per_sec : float;
  fm_p50 : float;
  fm_p95 : float;
  fm_p99 : float;
  fm_events : int;
  fm_recoveries : int;
  fm_violating : bool;  (* the online monitor flagged a shard *)
}

let measure_federation ?plan ?(steps = 2_000) (spec : Sep_fed.Fed.spec) =
  let module F = Sep_fed.Fed in
  let (t, ob), secs =
    timed_best (fun () ->
        let t = F.build ?plan ~monitor:true spec in
        F.run t ~steps;
        (t, F.finish t))
  in
  let h = Sep_obs.Telemetry.histogram (Sep_distributed.Net.telemetry (F.net t)) "net.latency.steps" in
  {
    fm_label = spec.F.fs_label;
    fm_faulty = plan <> None;
    fm_steps = steps;
    fm_seconds = secs;
    fm_delivered = ob.F.fob_delivered;
    fm_words_per_sec = per_sec ob.F.fob_delivered secs;
    fm_p50 = Sep_obs.Telemetry.p50 h;
    fm_p95 = Sep_obs.Telemetry.p95 h;
    fm_p99 = Sep_obs.Telemetry.p99 h;
    fm_events = List.length ob.F.fob_events;
    fm_recoveries = List.length ob.F.fob_recoveries;
    fm_violating = ob.F.fob_first_violation <> None;
  }

(* The directed faulty workload: crash the last shard a third of the way
   in (failover from checkpoints), partition the first data wire for a
   while two thirds in — recovery cost shows up in the tail latency, not
   in lost words. *)
let federation_fault_plan (spec : Sep_fed.Fed.spec) ~steps =
  {
    Sep_robust.Fault_plan.label = "bench-node-faults";
    faults =
      [
        (steps / 3, Sep_robust.Fault_plan.Shard_crash { shard = Sep_fed.Fed.nshards_of spec - 1 });
        (2 * steps / 3, Sep_robust.Fault_plan.Link_partition { link = 0; window = 40 });
      ];
  }

let federation_measures ?(steps = 2_000) () =
  List.concat_map
    (fun (spec : Sep_fed.Fed.spec) ->
      [
        measure_federation ~steps spec;
        measure_federation ~plan:(federation_fault_plan spec ~steps) ~steps spec;
      ])
    Sep_fed.Fed_scenarios.all

let e19 () =
  claim
    "the kernel federation is fail-operational: inter-shard channel words ride reliable links \
     between shard kernels, a crashed shard is warm-rebooted from its output-commit checkpoints \
     and a partitioned wire costs latency, never words — while the online separability monitor \
     stays clean on every shard.";
  let t = Table.create
      ~title:"E19: federated throughput and latency, clean vs node faults (2000 steps, best of 3)"
      ~columns:[ "scenario"; "workload"; "words"; "words/s"; "lat p50"; "lat p95"; "lat p99";
                 "node events"; "recoveries"; "monitor" ] in
  List.iter
    (fun m ->
      Table.add_row t
        [
          m.fm_label;
          (if m.fm_faulty then "node faults" else "clean");
          string_of_int m.fm_delivered;
          Fmt.str "%.0f" m.fm_words_per_sec;
          Fmt.str "%.0f" m.fm_p50;
          Fmt.str "%.0f" m.fm_p95;
          Fmt.str "%.0f" m.fm_p99;
          string_of_int m.fm_events;
          string_of_int m.fm_recoveries;
          (if m.fm_violating then "VIOLATION" else "clean");
        ])
    (federation_measures ());
  Table.print t

(* -- E21: services over the federation ----------------------------------------- *)

(* One service run: end-to-end requests carried by the Sep_svc layer on
   top of the federation, clean and under a directed node-fault plan.
   The throughput metric is resolved requests per second of wall clock;
   the contract column is the exactly-once audit (lost = committed
   outcome without a ledger effect, dup = one (client, rid) committed
   twice). *)
type svc_measure = {
  sm_label : string;
  sm_faulty : bool;
  sm_steps : int;
  sm_seconds : float;
  sm_requests : int;
  sm_committed : int;
  sm_requests_per_sec : float;
  sm_retries : int;
  sm_dedup_hits : int;
  sm_shed : int;
  sm_rtt_p50 : float;
  sm_rtt_p95 : float;
  sm_contract_ok : bool;
  sm_violating : bool;  (* the online monitor flagged a shard *)
}

let measure_service ?plan ?(steps = 2_500) (dep : Sep_svc.Svc.deployment) =
  let module Svc = Sep_svc.Svc in
  let (t, res), secs =
    timed_best (fun () ->
        let t = Svc.build ?plan ~monitor:true ~seed:42 dep in
        Svc.run t ~steps;
        (t, Svc.finish t))
  in
  let tel = Svc.telemetry t in
  let kv name =
    match Sep_obs.Telemetry.find_counter tel name with
    | Some c -> Sep_obs.Telemetry.counter_value c
    | None -> 0
  in
  let rtt = Sep_obs.Telemetry.histogram tel "svc.rtt_steps" in
  let c = res.Svc.sr_contract in
  {
    sm_label = dep.Svc.dp_name;
    sm_faulty = plan <> None;
    sm_steps = steps;
    sm_seconds = secs;
    sm_requests = c.Svc.ct_requests;
    sm_committed = c.Svc.ct_committed;
    sm_requests_per_sec = per_sec c.Svc.ct_resolved secs;
    sm_retries = kv "svc.retries";
    sm_dedup_hits = kv "svc.dedup_hits";
    sm_shed = kv "svc.shed";
    sm_rtt_p50 = Sep_obs.Telemetry.p50 rtt;
    sm_rtt_p95 = Sep_obs.Telemetry.p95 rtt;
    sm_contract_ok = c.Svc.ct_ok;
    sm_violating = res.Svc.sr_fed.Sep_fed.Fed.fob_first_violation <> None;
  }

(* The directed faulty workload: crash the first replica shard a third
   of the way in (clients fail over, the replay cache absorbs the
   retries) and partition the first wire two thirds in (deadline
   timeouts and backoff, never a duplicated effect). *)
let service_fault_plan (dep : Sep_svc.Svc.deployment) ~steps =
  let spec = Sep_svc.Svc.spec_of dep in
  {
    Sep_robust.Fault_plan.label = "bench-service-faults";
    faults =
      [
        (steps / 3, Sep_robust.Fault_plan.Shard_crash { shard = 1 });
        ( 2 * steps / 3,
          Sep_robust.Fault_plan.Link_partition
            { link = min 1 (Sep_fed.Fed.nlinks_of spec - 1); window = 60 } );
      ];
  }

let service_measures ?(steps = 2_500) () =
  List.concat_map
    (fun (dep : Sep_svc.Svc.deployment) ->
      [
        measure_service ~steps dep;
        measure_service ~plan:(service_fault_plan dep ~steps) ~steps dep;
      ])
    Sep_apps.Fed_services.all

let e21 () =
  claim
    "the section 6 services survive node faults as federation applications: clients retry with \
     capped backoff and fail over across replicas, servers deduplicate replays for exactly-once \
     effects, overload sheds definite rejections — every accepted request ends in exactly one \
     committed effect or a definite client-visible failure, clean and under crashes alike.";
  let t = Table.create
      ~title:"E21: service throughput and contract, clean vs node faults (2500 steps, best of 3)"
      ~columns:[ "service"; "workload"; "requests"; "committed"; "req/s"; "retries"; "dedup";
                 "shed"; "rtt p50"; "rtt p95"; "contract"; "monitor" ] in
  List.iter
    (fun m ->
      Table.add_row t
        [
          m.sm_label;
          (if m.sm_faulty then "node faults" else "clean");
          string_of_int m.sm_requests;
          string_of_int m.sm_committed;
          Fmt.str "%.0f" m.sm_requests_per_sec;
          string_of_int m.sm_retries;
          string_of_int m.sm_dedup_hits;
          string_of_int m.sm_shed;
          Fmt.str "%.0f" m.sm_rtt_p50;
          Fmt.str "%.0f" m.sm_rtt_p95;
          (if m.sm_contract_ok then "ok" else "BROKEN");
          (if m.sm_violating then "VIOLATION" else "clean");
        ])
    (service_measures ());
  Table.print t

(* -- E20: the refinement stack ----------------------------------------------------------- *)

let refinement_measure () =
  let module Stack = Sep_refine.Stack in
  let scen, secs =
    timed (fun () -> Stack.scenario_results ~schedules:2 ~steps:250 ~seed:42 ())
  in
  let checks =
    List.fold_left (fun a (_, r) -> match r with Ok c -> a + c | Error _ -> a) 0 scen
  in
  let diverged = List.filter (fun (_, r) -> Result.is_error r) scen in
  let kills, kill_secs = timed (fun () -> Stack.kill_table ~seed:42 ~attempts:12 ()) in
  (scen, checks, secs, diverged, kills, kill_secs)

let e20 () =
  claim
    "the kernel is verifiable as a refinement of the separability ideal: an abstract per-colour \
     machine sits above the Sue kernel through the abstraction functions (one commuting square \
     per instruction), a behavioural specification above the regime kernel (one per rotation), \
     and shared Kahn workloads tie the levels' committed word streams — any seeded bug at either \
     level breaks a square, minimally and replayably.";
  let module Stack = Sep_refine.Stack in
  let scen, checks, secs, diverged, kills, kill_secs = refinement_measure () in
  let t = Table.create ~title:"E20: refinement kill table (seed 42, 12 attempts/bug)"
      ~columns:[ "bug"; "level"; "scenario"; "attempt"; "step"; "size"; "shrunk"; "status" ] in
  List.iter
    (fun (k : Stack.kill) ->
      Table.add_row t
        [
          k.Stack.k_bug;
          k.Stack.k_level;
          k.Stack.k_scenario;
          string_of_int k.Stack.k_attempts;
          string_of_int k.Stack.k_step;
          string_of_int k.Stack.k_original_size;
          string_of_int k.Stack.k_shrunk_size;
          (if k.Stack.k_killed then "killed" else "SURVIVED");
        ])
    kills;
  Table.print t;
  let killed = List.length (List.filter (fun k -> k.Stack.k_killed) kills) in
  Fmt.pr "lockstep: %d scenario runs, %d divergences, %d commuting-square checks (%.0f checks/s)@."
    (List.length scen) (List.length diverged) checks
    (per_sec checks secs);
  Fmt.pr "kills: %d/%d seeded bugs caught in %.2fs@." killed (List.length kills) kill_secs

(* -- bechamel timings -------------------------------------------------------------------- *)

let timings () =
  let open Bechamel in
  let open Toolkit in
  Fmt.pr "== timing benches (bechamel, monotonic clock) ==@.";
  let sue_instance () = Sue.build Scenarios.pipeline.Scenarios.cfg in
  let sue_step =
    let t = sue_instance () in
    Test.make ~name:"sue kernel step" (Staged.stage (fun () -> ignore (Sue.step t [ (0, 1) ])))
  in
  let sue_swap =
    let t = Sue.build (spin_config [ Colour.red; Colour.black ]) in
    Test.make ~name:"sue SWAP (trap + context switch)" (Staged.stage (fun () -> ignore (Sue.step t [])))
  in
  let phi =
    let t = sue_instance () in
    Test.make ~name:"abstraction function phi" (Staged.stage (fun () -> ignore (Sue.phi t Colour.red)))
  in
  let kernel_step =
    let topo = Snfe.topology Snfe.default_config in
    let k = Sep_core.Regime_kernel.build topo in
    Test.make ~name:"regime-kernel rotation (snfe)"
      (Staged.stage (fun () -> Sep_core.Regime_kernel.step k ~externals:[ (Snfe.red, "p") ]))
  in
  let net_step =
    let topo = Snfe.topology Snfe.default_config in
    let n = Sep_distributed.Net.build topo in
    Test.make ~name:"distributed-net step (snfe)"
      (Staged.stage (fun () -> Sep_distributed.Net.step n ~externals:[ (Snfe.red, "p") ]))
  in
  let crypto =
    let key = Sep_components.Crypto.key_of_int 0xC0FFEE in
    let msg = String.make 64 'x' in
    Test.make ~name:"crypto encrypt (64 bytes)"
      (Staged.stage (fun () -> ignore (Sep_components.Crypto.encrypt key msg)))
  in
  let censor_check =
    Test.make ~name:"censor check (strict)"
      (Staged.stage (fun () ->
           ignore
             (Censor.check ~mode:Censor.Strict ~max_len:32 ~quantum:8 ~expected_seq:0
                "HDR seq=0 len=5")))
  in
  let ifa =
    Test.make ~name:"IFA certification (catalogue)"
      (Staged.stage (fun () ->
           List.iter
             (fun (c : Sep_ifa.Programs.case) ->
               ignore (Sep_ifa.Certify.certify c.Sep_ifa.Programs.env c.Sep_ifa.Programs.program))
             Sep_ifa.Programs.all))
  in
  let pos_small =
    let inst = Scenarios.scaled ~regimes:2 ~counter_bits:1 in
    Test.make ~name:"exhaustive PoS (scaled 2x1b)"
      (Staged.stage (fun () ->
           ignore (Separability.check (Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg))))
  in
  let blp =
    let sub = Sep_policy.Blp.subject "s" Sclass.secret in
    let obj = Sep_policy.Blp.obj "o" Sclass.unclassified in
    Test.make ~name:"BLP decision"
      (Staged.stage (fun () -> ignore (Sep_policy.Blp.decide sub Sep_policy.Blp.Read obj)))
  in
  let tests =
    [ sue_step; sue_swap; phi; kernel_step; net_step; crypto; censor_check; ifa; pos_small; blp ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let table = Table.create ~title:"core operation timings" ~columns:[ "operation"; "ns/run"; "r^2" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Fmt.str "%.1f" est
            | Some [] | None -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Fmt.str "%.4f" r
            | None -> "n/a"
          in
          Table.add_row table [ name; ns; r2 ])
        analysed)
    tests;
  Table.print table

(* -- snapshot: the machine-readable bench record ------------------------------ *)

(* [snapshot --out FILE] writes BENCH_PR<n>.json: per-experiment wall
   clock, states explored, checks/sec, per-regime kernel counters and the
   span profile, so the perf trajectory of the repository is comparable
   across PRs. [sections] declares the snapshot's shape once: the writer
   emits the sections in that order, [validate_snapshot] checks each
   declared part and its required keys, and [compare] gates the declared
   rates. The required keys are written out, not read off the writer, so
   a writer that drops a field fails validation. EXPERIMENTS.md documents
   every field. *)

let schema = "rushby-bench/9"

let extend json fields = match json with Json.Obj fs -> Json.Obj (fs @ fields) | other -> other

(* Where a section's entries live. *)
type entries =
  | Whole  (* the section is one object, its own single entry *)
  | Items  (* the section is a list of entries *)
  | Named of string  (* the section object holds its entries in this list *)

type section = {
  key : string;  (* the top-level key *)
  parts : (entries * string list) list;
      (* each part's entries and the keys every entry must carry (a dotted
         key is a path); an entry list may not be empty *)
  gate : (int * string list * string) option;
      (* compare: (row order, label fields, rate key) over the first part's
         entries, one metric "<key>.<labels joined by ':'>.<rate key>" per
         entry *)
  build : unit -> Json.t;
}

let sections =
  [
    {
      key = "experiments";
      parts = [ (Items, [ "label"; "states"; "checks"; "verified"; "seconds"; "checks_per_sec" ]) ];
      gate = Some (0, [ "label" ], "checks_per_sec");
      build =
        (fun () ->
          Json.List
            (List.map
               (fun (label, report, secs) ->
                 Json.Obj
                   [
                     ("label", Json.String label);
                     ("kind", Json.String "exhaustive-pos");
                     ("states", Json.Int report.Separability.states);
                     ("checks", Json.Int report.Separability.checks);
                     ("verified", Json.Bool (Separability.verified report));
                     ("seconds", Json.Float secs);
                     ("checks_per_sec", Json.Float (per_sec report.Separability.checks secs));
                   ])
               (check_scenarios ())));
    };
    {
      key = "kernel_runs";
      parts =
        [ (Items, [ "label"; "impl"; "steps"; "seconds"; "steps_per_sec"; "counters.counters" ]) ];
      gate = Some (1, [ "label"; "impl" ], "steps_per_sec");
      build =
        (fun () ->
          let run (inst : Scenarios.instance) impl =
            let steps = 5_000 and inputs = schedule inst in
            (* fresh kernel per rep so the counters below describe one run *)
            let t, secs =
              timed_best ~reps:7 (fun () ->
                  let t = Sue.build ~impl inst.Scenarios.cfg in
                  for n = 0 to steps - 1 do
                    ignore (Sue.step t (inputs n))
                  done;
                  t)
            in
            Json.Obj
              [
                ("label", Json.String inst.Scenarios.label);
                ("impl", Json.String (Fmt.str "%a" Sue.pp_impl impl));
                ("steps", Json.Int steps);
                ("seconds", Json.Float secs);
                ("steps_per_sec", Json.Float (per_sec steps secs));
                ("counters", Sep_obs.Telemetry.to_json (Sue.telemetry t));
              ]
          in
          Json.List
            (List.map (fun inst -> run inst Sue.Microcode) (snapshot_scenarios ())
            @ [ run Scenarios.pipeline Sue.Assembly ]));
    };
    {
      key = "fault_campaign";
      parts = [ (Whole, [ "cases"; "masked"; "detected_safe"; "violating"; "holds"; "distributed" ]) ];
      gate = None;
      build =
        (fun () ->
          let report, secs, dist = fault_campaign () in
          extend (Campaign.summary_json report)
            [ ("seconds", Json.Float secs); ("distributed", Campaign.dist_to_json dist) ]);
    };
    {
      key = "fuzz";
      parts =
        [
          (Named "scenarios", [ "label"; "execs"; "corpus"; "coverage_keys"; "failures"; "seconds" ]);
          ( Named "kills",
            [ "bug"; "scenario"; "strategy"; "detected"; "condition"; "execs"; "seconds" ] );
        ];
      gate = None;
      build =
        (fun () ->
          let scenarios, kills = fuzz_measure () in
          Json.Obj
            [
              ("seed", Json.Int fuzz_seed);
              ("budget", Json.Int fuzz_budget);
              ( "scenarios",
                Json.List
                  (List.map
                     (fun (label, (r, secs)) ->
                       Json.Obj
                         [
                           ("label", Json.String label);
                           ("execs", Json.Int r.Fuzz.sr_campaign.Fuzz.cp_execs);
                           ("corpus", Json.Int (List.length r.Fuzz.sr_campaign.Fuzz.cp_entries));
                           ("coverage_keys", Json.Int (List.length r.Fuzz.sr_campaign.Fuzz.cp_keys));
                           ("failures", Json.Int (List.length r.Fuzz.sr_failures));
                           ("seconds", Json.Float secs);
                         ])
                     scenarios) );
              ( "kills",
                Json.List
                  (List.map
                     (fun (k, secs) -> extend (Score.kill_to_json k) [ ("seconds", Json.Float secs) ])
                     kills) );
            ]);
    };
    {
      key = "recovery";
      parts =
        [
          ( Whole,
            [ "cases"; "masked"; "detected_safe"; "recovered_safe"; "violating"; "holds";
              "reliable_net" ] );
          ( Named "reliable_net",
            [ "case"; "delivered"; "mismatches"; "lossy_drops"; "retransmits"; "acks";
              "backoff_ceiling" ] );
        ];
      gate = None;
      build =
        (fun () ->
          let report, secs = recovery_campaign () in
          let rel, rel_secs =
            timed (fun () -> Sep_check.Diff.kernel_vs_reliable_net ~seed:42 ~cases:4 ~steps:150 ())
          in
          let rel_entry i (rc : Sep_check.Diff.reliable_case) =
            let s = rc.Sep_check.Diff.rc_stats in
            Json.Obj
              [
                ("case", Json.Int i);
                ("delivered", Json.Int rc.Sep_check.Diff.rc_delivered);
                ("mismatches", Json.Int (List.length rc.Sep_check.Diff.rc_mismatches));
                ("lossy_drops", Json.Int s.Sep_distributed.Net.ls_lossy_drops);
                ("retransmits", Json.Int s.Sep_distributed.Net.ls_retransmits);
                ("acks", Json.Int s.Sep_distributed.Net.ls_acks);
                ("backoff_ceiling", Json.Int s.Sep_distributed.Net.ls_backoff_ceiling);
              ]
          in
          extend (Campaign.summary_json report)
            [
              ("seconds", Json.Float secs);
              ("reliable_net", Json.List (List.mapi rel_entry rel));
              ("reliable_net_seconds", Json.Float rel_secs);
            ]);
    };
    {
      key = "speedup";
      parts = [ (Whole, [ "jobs"; "seconds_j1"; "seconds_jn"; "speedup"; "deterministic" ]) ];
      gate = None;
      build =
        (fun () ->
          let jobs = Sep_par.Par.default_jobs () in
          let r1, s1 = timed (fun () -> Campaign.run ~jobs:1 ~seed:42 ~steps:120 ~count:24 ()) in
          let rn, sn = timed (fun () -> Campaign.run ~jobs ~seed:42 ~steps:120 ~count:24 ()) in
          Json.Obj
            [
              ("jobs", Json.Int jobs);
              ("seconds_j1", Json.Float s1);
              ("seconds_jn", Json.Float sn);
              ("speedup", Json.Float (if sn > 0.0 then s1 /. sn else 0.0));
              ( "deterministic",
                Json.Bool
                  (String.equal (Campaign.report_to_jsonl r1) (Campaign.report_to_jsonl rn)) );
            ]);
    };
    {
      key = "monitor";
      parts =
        [
          ( Named "runs",
            [ "label"; "steps"; "period"; "seconds_bare"; "seconds_watched"; "steps_per_sec_bare";
              "steps_per_sec_watched"; "overhead_frac"; "deep_checks"; "clean" ] );
        ];
      gate = Some (2, [ "label" ], "steps_per_sec_watched");
      build =
        (fun () ->
          let run inst =
            let r = measure_monitor_overhead inst in
            Json.Obj
              [
                ("label", Json.String r.mo_label);
                ("impl", Json.String "microcode");
                ("steps", Json.Int r.mo_steps);
                ("period", Json.Int r.mo_period);
                ("seconds_bare", Json.Float r.mo_bare);
                ("seconds_watched", Json.Float r.mo_watched);
                ("steps_per_sec_bare", Json.Float (per_sec r.mo_steps r.mo_bare));
                ("steps_per_sec_watched", Json.Float (per_sec r.mo_steps r.mo_watched));
                ("overhead_frac", Json.Float (overhead_frac r));
                ("deep_checks", Json.Int r.mo_deep);
                ("clean", Json.Bool r.mo_clean);
              ]
          in
          Json.Obj [ ("runs", Json.List (List.map run (snapshot_scenarios ()))) ]);
    };
    {
      key = "latency";
      parts = [ (Whole, [ "steps"; "words"; "p50"; "p95"; "p99"; "retransmit_queue" ]) ];
      gate = None;
      build =
        (fun () ->
          (* end-to-end word latency over one reliable lossy link: the snfe
             topology under the default link model, latency measured in net
             steps from send-accept to in-order delivery *)
          let net =
            Sep_distributed.Net.build ~link:Sep_distributed.Net.default_link_model
              (Snfe.topology Snfe.default_config)
          in
          let steps = 400 in
          let (), secs =
            timed (fun () ->
                for n = 0 to steps - 1 do
                  Sep_distributed.Net.step net
                    ~externals:(if n mod 2 = 0 then [ (Snfe.red, Fmt.str "m%d" n) ] else [])
                done)
          in
          let tel = Sep_distributed.Net.telemetry net in
          let h = Sep_obs.Telemetry.histogram tel "net.latency.steps" in
          let s = Sep_distributed.Net.link_stats net in
          Json.Obj
            [
              ("topology", Json.String "snfe");
              ("steps", Json.Int steps);
              ("seconds", Json.Float secs);
              ("words", Json.Int (Sep_obs.Telemetry.count h));
              ("p50", Json.Float (Sep_obs.Telemetry.p50 h));
              ("p95", Json.Float (Sep_obs.Telemetry.p95 h));
              ("p99", Json.Float (Sep_obs.Telemetry.p99 h));
              ("max", Json.Float (Sep_obs.Telemetry.hist_max h));
              ( "retransmit_queue",
                Json.Float
                  (Sep_obs.Telemetry.gauge_value
                     (Sep_obs.Telemetry.gauge tel "net.retransmit_queue")) );
              ("retransmits", Json.Int s.Sep_distributed.Net.ls_retransmits);
              ("acks", Json.Int s.Sep_distributed.Net.ls_acks);
            ]);
    };
    {
      key = "federation";
      parts =
        [
          ( Named "runs",
            [ "label"; "workload"; "steps"; "seconds"; "delivered"; "words_per_sec"; "latency_p50";
              "latency_p95"; "latency_p99"; "node_events"; "recoveries"; "monitor_clean" ] );
        ];
      gate = Some (4, [ "label"; "workload" ], "words_per_sec");
      build =
        (fun () ->
          let run m =
            Json.Obj
              [
                ("label", Json.String m.fm_label);
                ("workload", Json.String (if m.fm_faulty then "node-faults" else "clean"));
                ("steps", Json.Int m.fm_steps);
                ("seconds", Json.Float m.fm_seconds);
                ("delivered", Json.Int m.fm_delivered);
                ("words_per_sec", Json.Float m.fm_words_per_sec);
                ("latency_p50", Json.Float m.fm_p50);
                ("latency_p95", Json.Float m.fm_p95);
                ("latency_p99", Json.Float m.fm_p99);
                ("node_events", Json.Int m.fm_events);
                ("recoveries", Json.Int m.fm_recoveries);
                ("monitor_clean", Json.Bool (not m.fm_violating));
              ]
          in
          Json.Obj [ ("runs", Json.List (List.map run (federation_measures ()))) ]);
    };
    {
      key = "services";
      parts =
        [
          ( Named "runs",
            [ "label"; "workload"; "steps"; "seconds"; "requests"; "committed"; "requests_per_sec";
              "retries"; "dedup_hits"; "shed"; "rtt_p50"; "rtt_p95"; "contract_ok";
              "monitor_clean" ] );
        ];
      gate = Some (5, [ "label"; "workload" ], "requests_per_sec");
      build =
        (fun () ->
          let run m =
            Json.Obj
              [
                ("label", Json.String m.sm_label);
                ("workload", Json.String (if m.sm_faulty then "node-faults" else "clean"));
                ("steps", Json.Int m.sm_steps);
                ("seconds", Json.Float m.sm_seconds);
                ("requests", Json.Int m.sm_requests);
                ("committed", Json.Int m.sm_committed);
                ("requests_per_sec", Json.Float m.sm_requests_per_sec);
                ("retries", Json.Int m.sm_retries);
                ("dedup_hits", Json.Int m.sm_dedup_hits);
                ("shed", Json.Int m.sm_shed);
                ("rtt_p50", Json.Float m.sm_rtt_p50);
                ("rtt_p95", Json.Float m.sm_rtt_p95);
                ("contract_ok", Json.Bool m.sm_contract_ok);
                ("monitor_clean", Json.Bool (not m.sm_violating));
              ]
          in
          Json.Obj [ ("runs", Json.List (List.map run (service_measures ()))) ]);
    };
    {
      key = "refinement";
      parts =
        [
          ( Whole,
            [ "scenario_runs"; "divergences"; "checks"; "checks_per_sec"; "bugs"; "killed"; "kills" ]
          );
          ( Named "kills",
            [ "bug"; "level"; "killed"; "seed"; "scenario"; "step"; "original_size"; "shrunk_size" ]
          );
        ];
      (* row 3, ahead of federation: the pinned compare output in
         bench/compare_*.expected lists it there *)
      gate = Some (3, [], "checks_per_sec");
      build =
        (fun () ->
          let module Stack = Sep_refine.Stack in
          let scen, checks, secs, diverged, kills, kill_secs = refinement_measure () in
          Json.Obj
            [
              ("seed", Json.Int 42);
              ("scenario_runs", Json.Int (List.length scen));
              ("divergences", Json.Int (List.length diverged));
              ("checks", Json.Int checks);
              ("seconds", Json.Float secs);
              ("checks_per_sec", Json.Float (per_sec checks secs));
              ("bugs", Json.Int (List.length kills));
              ("killed", Json.Int (List.length (List.filter (fun k -> k.Stack.k_killed) kills)));
              ("kill_seconds", Json.Float kill_secs);
              ("kills", Json.List (List.map Stack.kill_to_json kills));
            ]);
    };
    (* last, so the span profile covers every measurement above *)
    { key = "spans"; parts = [ (Whole, []) ]; gate = None; build = Sep_obs.Span.to_json };
  ]

let snapshot_json () =
  Sep_obs.Span.set_enabled true;
  Sep_obs.Span.reset ();
  let body = List.map (fun s -> (s.key, s.build ())) sections in
  Json.Obj
    (("schema", Json.String schema)
    :: ("generated_at_unix", Json.Float (Unix.time ()))
    :: ("ocaml_version", Json.String Sys.ocaml_version)
    :: body)

(* The entries of one declared part of a snapshot, [None] when the
   section is missing or does not have the part's shape. *)
let part_entries json s (at, _) =
  Option.bind (Json.member s.key json) (fun v ->
      match (at, v) with
      | Whole, Json.Obj _ -> Some [ v ]
      | Items, Json.List l -> Some l
      | Named name, _ -> (
        match Json.member name v with Some (Json.List l) -> Some l | _ -> None)
      | (Whole | Items), _ -> None)

let validate_snapshot json =
  let rec has v = function
    | [] -> true
    | k :: path -> ( match Json.member k v with Some v -> has v path | None -> false)
  in
  let problems s ((at, keys) as part) =
    let name = match at with Named l -> s.key ^ "." ^ l | Whole | Items -> s.key in
    match part_entries json s part with
    | None -> [ "missing " ^ name ]
    | Some [] -> [ "empty " ^ name ]
    | Some es ->
      List.filter_map
        (fun k ->
          if List.for_all (fun e -> has e (String.split_on_char '.' k)) es then None
          else Some (Fmt.str "%s entry without %s" name k))
        keys
  in
  match Json.member "schema" json with
  | Some (Json.String tag) when tag = schema -> (
    match List.concat_map (fun s -> List.concat_map (problems s) s.parts) sections with
    | [] -> Ok ()
    | p :: _ -> Error p)
  | _ -> Error "missing or unexpected schema tag"

let snapshot_main args =
  let rec parse (check, out) = function
    | [] -> if check || out <> None then Ok (check, out) else Error "--out FILE is required"
    | "--check" :: rest -> parse (true, out) rest
    | "--out" :: f :: rest -> parse (check, Some f) rest
    | "--out" :: [] -> Error "--out requires a file name"
    | a :: _ -> Error (Fmt.str "unknown argument %S" a)
  in
  match parse (false, None) args with
  | Error e ->
    Fmt.epr "snapshot: %s@.usage: snapshot (--out FILE | --check)@." e;
    2
  | Ok (check, out) -> (
    let json = snapshot_json () in
    (* round-trip through the writer and reader, then validate the shape *)
    match Json.parse (Json.to_string json) with
    | Error e ->
      Fmt.epr "snapshot: writer produced unparseable JSON: %s@." e;
      1
    | Ok parsed -> (
      let count key = match Json.member key parsed with Some (Json.List l) -> List.length l | _ -> 0 in
      let summary = Fmt.str "%d experiments, %d kernel runs" (count "experiments") (count "kernel_runs") in
      match (validate_snapshot parsed, out) with
      | Error e, _ ->
        Fmt.epr "snapshot: invalid shape: %s@." e;
        1
      | Ok (), Some file when not check -> (
        match
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Json.to_string json);
              output_char oc '\n')
        with
        | exception Sys_error e ->
          Fmt.epr "snapshot: %s@." e;
          1
        | () ->
          Fmt.pr "wrote %s (%s)@." file summary;
          0)
      | Ok (), _ ->
        Fmt.pr "snapshot --check: ok (%s; nothing written)@." summary;
        0))

(* ------------------------------------------------------------------ *)
(* compare: the regression gate.  Two snapshots in, a table and an exit
   code out: any shared throughput metric (checks/s or steps/s) that
   dropped by more than the tolerance fails the gate.  Only metrics
   present in BOTH files are compared, so adding or removing a scenario
   between PRs never trips the gate by itself. *)

let compare_tolerance = 0.20

let num = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* metric key -> throughput for every entry of the gated sections, in
   the gate's row order *)
let rates json =
  let gated = List.filter_map (fun s -> Option.map (fun g -> (g, s)) s.gate) sections in
  List.stable_sort (fun ((a, _, _), _) ((b, _, _), _) -> Int.compare a b) gated
  |> List.concat_map (fun ((_, labels, rate), s) ->
         List.filter_map
           (fun e ->
             let names =
               List.filter_map
                 (fun l -> match Json.member l e with Some (Json.String n) -> Some n | _ -> None)
                 labels
             in
             match Option.bind (Json.member rate e) num with
             | Some v when List.compare_lengths names labels = 0 ->
               let tag = if names = [] then [] else [ String.concat ":" names ] in
               Some (String.concat "." ((s.key :: tag) @ [ rate ]), v)
             | _ -> None)
           (Option.value ~default:[] (part_entries json s (List.hd s.parts))))

let load_snapshot file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Json.parse text with
    | Error e -> Error (Fmt.str "%s: %s" file e)
    | Ok json -> Ok json)

let compare_main args =
  match args with
  | [ old_file; new_file ] -> (
    match (load_snapshot old_file, load_snapshot new_file) with
    | Error e, _ | _, Error e ->
      Fmt.epr "compare: %s@." e;
      2
    | Ok old_json, Ok new_json ->
      let old_rates = rates old_json and new_rates = rates new_json in
      let shared =
        List.filter_map
          (fun (key, ov) ->
            match List.assoc_opt key new_rates with
            | Some nv -> Some (key, ov, nv)
            | None -> None)
          old_rates
      in
      if shared = [] then begin
        Fmt.epr "compare: no shared throughput metrics between %s and %s@." old_file new_file;
        2
      end
      else begin
        let regressions = ref 0 in
        Fmt.pr "%-56s %12s %12s %8s@." "metric" "old" "new" "delta";
        List.iter
          (fun (key, ov, nv) ->
            let delta = if ov > 0.0 then (nv -. ov) /. ov else 0.0 in
            let regressed = delta < -.compare_tolerance in
            if regressed then incr regressions;
            Fmt.pr "%-56s %12.0f %12.0f %7.1f%%%s@." key ov nv (100.0 *. delta)
              (if regressed then "  REGRESSION" else ""))
          shared;
        if !regressions > 0 then begin
          Fmt.pr "@.compare: FAIL — %d metric(s) regressed more than %.0f%%@." !regressions
            (100.0 *. compare_tolerance);
          1
        end
        else begin
          Fmt.pr "@.compare: ok — %d shared metric(s) within %.0f%% tolerance@."
            (List.length shared)
            (100.0 *. compare_tolerance);
          0
        end
      end)
  | _ ->
    Fmt.epr "usage: compare OLD.json NEW.json@.";
    2

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("e16", e16);
    ("e17", e17);
    ("e18", e18);
    ("e19", e19);
    ("e20", e20);
    ("e21", e21);
    ("timings", timings);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "snapshot" :: rest -> exit (snapshot_main rest)
  | _ :: "compare" :: rest -> exit (compare_main rest)
  | argv ->
  let requested =
    match argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        Fmt.pr "@.######## %s ########@." (String.uppercase_ascii name);
        f ()
      | None ->
        Fmt.epr "unknown experiment %s (known: %s)@." name
          (String.concat ", " (List.map fst experiments)))
    requested
