type result = {
  markdown : string;
  tables : (string * string * Sutil.Texttable.t) list;
  summary : string list;
}

type entry = {
  id : string;
  heading : string;
  claim : string;
  run : pool:Sched.Pool.t -> result;
}

(* Every section body is its renderers' markdown, each followed by a
   blank line. *)
let body parts = String.concat "" (List.map (fun md -> md ^ "\n") parts)

let only_tables markdown tables = { markdown; tables; summary = [] }

let security ~name t =
  only_tables
    (body [ Security.to_markdown t ])
    [ (name, t.Security.title, Security.table t) ]

let table1 =
  {
    id = "table1";
    heading = "E1 — Table I: randomness source rates";
    claim =
      "Paper: pseudo 3.4, AES-1 19.2, AES-10 92.8, RDRAND 265.6 \
       cycles/invocation; pseudo offers no security, AES trades rounds for \
       security, RDRAND is true-random but slow.";
    run =
      (fun ~pool ->
        let t = Randrate.run ~pool () in
        only_tables
          (body [ Randrate.to_markdown t ])
          [
            ( "table1",
              "Table I: source of randomness (cycles per 64-bit draw)",
              Randrate.table t );
          ]);
  }

let fig3 =
  {
    id = "fig3";
    heading = "E2 — Figure 3: runtime overhead";
    claim =
      "Paper: pseudo from -2.6% to +7.2% (mean 0.9%); AES-1 mean 3.3%; \
       AES-10 0.6-29% (mean 10.3%); RDRAND mean ~22%; I/O-bound apps \
       worst case 6%.  Expected shape: RDRAND > AES-10 > AES-1 > pseudo on \
       every row; call-dense benchmarks (gobmk) worst; loop-dominated \
       (mcf, hmmer, libquantum) near zero.";
    run =
      (fun ~pool ->
        let t = Overhead.run ~pool () in
        let worst = Sutil.Texttable.fmt_pct t.io_worst in
        {
          markdown =
            body
              [
                Overhead.to_markdown t;
                Printf.sprintf
                  "Worst I/O-bound overhead measured: %s (paper: 6%%).\n" worst;
              ];
          tables =
            [
              ( "fig3",
                "Figure 3: % runtime overhead (SPEC-like + I/O workloads)",
                Overhead.table t );
            ];
          summary =
            [ Printf.sprintf "worst I/O-bound overhead: %s (paper: 6%% worst case)" worst ];
        });
  }

let fig4 =
  {
    id = "fig4";
    heading = "E3 — Figure 4: memory overhead (max RSS)";
    claim =
      "Paper: the P-BOX in read-only data drives RSS up most for the \
       benchmarks with the most distinct stack formats (perlbench, \
       h264ref), and those benchmarks' *performance* overhead is \
       comparatively low.";
    run =
      (fun ~pool ->
        let t = Memov.run ~pool () in
        only_tables
          (body [ Memov.to_markdown t ])
          [ ("fig4", "Figure 4: % memory overhead (max-RSS proxy)", Memov.table t) ]);
  }

let bypass =
  {
    id = "bypass";
    heading = "E4 — §II-C: bypassing prior stack randomizations (librelp PoC)";
    claim =
      "Paper: the CVE-2018-1000140 DOP exploit defeats stack-base \
       randomization, random padding, and static permutation (via binary \
       analysis / disclosure / brute force); the non-linear snprintf gap \
       sails over canaries.  Success rate per attempt (per *build* for the \
       per-build defenses):";
    run = (fun ~pool -> security ~name:"bypass" (Security.bypass_prior ~pool ()));
  }

let pentest =
  {
    id = "pentest";
    heading = "E5 — §V-C: synthetic penetration tests";
    claim =
      "Paper: Smokestack stopped all direct and indirect overflow attacks \
       from stack, data-segment and heap buffers; prior defenses did not.  \
       (stack-base stops only the attacks needing *absolute* addresses; \
       static-perm rows read as the fraction of builds exploitable.)";
    run = (fun ~pool -> security ~name:"pentest" (Security.pentest ~pool ()));
  }

let realvuln =
  {
    id = "realvuln";
    heading = "E6 — §V-C: real vulnerabilities";
    claim =
      "Paper: the Wireshark CVE-2014-2299 DOP exploit, the three ProFTPD \
       CVE-2006-5815 exploits (private-key extraction through the pointer \
       chain, bot simulation, memory-permission alteration), and the \
       librelp PoC all succeed undefended and are all stopped by \
       Smokestack (Wireshark via function-identifier detection).";
    run = (fun ~pool -> security ~name:"realvuln" (Security.realvuln ~pool ()));
  }

let ablation =
  {
    id = "ablation";
    heading = "E7 — §III-E: P-BOX optimization ablation";
    claim =
      "Power-of-2 rows trade read-only bytes for a cheaper prologue (AND \
       vs modulo); table sharing and rounding-up reclaim memory for free; \
       the FID checks that replace the stack protector cost one extra \
       permuted slot per function (larger tables) plus a cheap \
       prologue/epilogue pair.";
    run =
      (fun ~pool ->
        let t = Ablation.run ~pool () in
        only_tables
          (body [ Ablation.to_markdown t ])
          [ ("ablation", "E7: P-BOX optimization ablation", Ablation.table t) ]);
  }

let brute =
  {
    id = "brute";
    heading = "E8 — brute force under restart-after-crash";
    claim =
      "Paper threat model: finite attempts against a restarting service.  \
       Prior defenses fall on the first attempt (or are fixed per build); \
       Smokestack forces ~|permutation space| attempts and re-randomizes \
       per invocation, with FID detections along the way.";
    run =
      (fun ~pool ->
        let rows = Security.brute ~pool () in
        only_tables
          (body [ Security.brute_to_markdown rows ])
          [
            ( "brute",
              "E8: brute-force attempts until the librelp exploit lands",
              Security.brute_table rows );
          ]);
  }

let entropy =
  {
    id = "entropy";
    heading = "E9 — entropy accounting (extension)";
    claim =
      "The measured brute-force rates should follow from the permutation \
       space itself.  A librelp attempt succeeds when the attacker's guessed \
       allNames-to-keyPtr DISTANCE equals the drawn one and the distance is \
       physically reachable by the single snprintf gap jump; since guess and \
       reality are drawn from the same distribution, the per-attempt success \
       probability is the collision probability of the (reachable) distance \
       distribution.  Alignment padding adds entropy; identical-shape slots \
       and distance aliasing remove some — both paper-predicted effects, \
       now with numbers.";
    run =
      (fun ~pool:_ ->
        let t = Collision.run () in
        {
          markdown = body [ Collision.to_markdown t ];
          tables =
            [
              ( "entropy",
                "E9: librelp per-attempt success, collision prediction vs \
                 measurement",
                Collision.table t );
            ];
          summary =
            [
              Printf.sprintf
                "per-attempt success: predicted %.4f, measured %.4f over %d \
                 trials"
                t.predicted t.measured t.trials;
            ];
        });
  }

let rngsec =
  {
    id = "rngsec";
    heading = "E10 — state-disclosure prediction vs randomness scheme (extension)";
    claim =
      "Table I's security column, executed.  The attacker reads the pseudo \
       generator's state word from VM data memory (the threat model grants \
       full read access), inverts the xorshift to recover the draws that laid \
       out the already-live frames, replicates the public layout decode, and \
       delivers the librelp exploit within the same invocation.  The residual \
       misses against `pseudo` are exploit physics (some layouts put the \
       target beyond the single snprintf jump and the dispatcher grants four \
       invocations per run); the prediction itself is exact.";
    run = (fun ~pool -> security ~name:"rngsec" (Security.rng_security ~pool ()));
  }

let rerand =
  {
    id = "rerand";
    heading = "E11 — re-randomization interval (extension)";
    claim =
      "The paper randomizes every invocation and argues an attacker must \
       \"reverse engineer a function frame and deliver a payload in the same \
       invocation\".  This ablation relaxes that: the permutation index is \
       redrawn only every n-th request, and the attacker runs a same-run \
       probe-then-exploit (plant marker, disclose the live distance, exploit \
       a later invocation of the same process — the attack that also kills \
       every static defense).  Intervals below one request's draw count \
       behave like the paper's design; larger windows re-open the attack up \
       to the exploit's reach cap.";
    run =
      (fun ~pool ->
        let rows = Security.rerandomization ~pool () in
        only_tables
          (body [ Security.rerand_to_markdown rows ])
          [
            ( "rerand",
              "E11: same-run probe-then-exploit vs re-randomization interval \
               (per-invocation is the design point)",
              Security.rerand_table rows );
          ]);
  }

let analysis =
  {
    id = "analysis";
    heading = "E12 — static DOP attack surface + differential validation (extension)";
    claim =
      "The static analyzer (lib/analysis) classifies every stack slot \
       overflow-capable or safe, enumerates DOP pairs (same-frame, \
       cross-frame, wild-write), and scores each pair's expected \
       brute-force attempts per defense from the same collision model the \
       entropy accounting uses.  Shapes to check: the memory-safe Progen \
       programs report overflows only through escape imprecision; \
       `none`/`stack-base`/`canary` leave relative distances fixed (1 \
       attempt) except stack-base vs wild writes; Smokestack's expected \
       attempts track the E9 entropy columns.  The differential half runs \
       every dynamic exploit against the unhardened build and asserts its \
       corrupted (buffer, victim) tuple appears among the statically \
       reported pairs — the analyzer may over-approximate but must not \
       miss a demonstrated attack.";
    run =
      (fun ~pool ->
        let t = Surface.run ~pool () in
        let cv = Crossval.run ~pool () in
        {
          markdown = body [ Surface.to_markdown t; Crossval.to_markdown cv ];
          tables =
            [
              ( "analysis",
                "E12: static DOP attack surface (expected attempts, easiest pair)",
                Surface.table t );
              ( "crossval",
                "E12b: differential validation (dynamic attack => static DOP pair)",
                Crossval.table cv );
            ];
          summary =
            [
              "differential validation: "
              ^
              if cv.all_validated then "every dynamic success has a static DOP pair"
              else "FAILED - a dynamic success has no static pair";
            ];
        });
  }

let chaos =
  {
    id = "chaos";
    heading = "E13 — chaos: fault injection and graceful degradation (extension)";
    claim =
      "Seeded fault plans (site x trigger x behaviour; see DESIGN.md \
       §11) injected into hardened runs of one SPEC kernel and one \
       I/O request loop, each cell executed on both engines.  Shapes to \
       check: every outcome is structured (no fault plan makes the VM \
       raise); stuck-at/all-ones/biased sources are caught by the SP \
       800-90B health tests and degrade RDRAND -> AES-10 (fail-secure); \
       FID-argument corruption is caught by the XOR check; never-firing \
       plans leave every observable bit-identical to the fault-free run \
       (asserted); fail-open degradation to the memory-resident pseudo \
       scheme collapses the brute-force cost to one attempt while \
       fail-secure keeps the full permutation space.";
    run =
      (fun ~pool ->
        let t = Chaos.run ~pool () in
        {
          markdown = body [ Chaos.to_markdown t ];
          tables =
            [
              ( "chaos",
                "E13: chaos — seeded fault injection across workloads and engines",
                Chaos.table t );
              ( "chaos_policy",
                "E13: fail-secure vs fail-open (rng:ones@1, RDRAND source)",
                Chaos.policy_table t );
            ];
          summary =
            [
              Printf.sprintf "detection: %d/%d corrupting fired plans caught (%.1f%%)"
                t.caught t.corrupting_fired (100. *. t.detection_rate);
            ];
        });
  }

let selective =
  {
    id = "selective";
    heading = "E14 — selective hardening under the static validator (extension)";
    claim =
      "The static validator (lib/analysis/validate, DESIGN.md §12) proves \
       the four Smokestack post-conditions — frame integrity, P-BOX \
       soundness, index hygiene, FID pairing — over the hardened IR, and \
       doubles as an elision oracle: functions whose every slot is \
       provably overflow-safe and that join no DOP pair keep their \
       original frames (one discarded randomness draw preserves the \
       shuffle stream).  Shapes to check: the differential table is all \
       'yes' — elision never changes an attack verdict or a Progen \
       program's output — while the overhead table shows the payoff \
       concentrated in call-dense benchmarks (gobmk, sjeng) and zero \
       wherever nothing can be elided (the I/O request loops, whose \
       buffers all join DOP pairs).";
    run =
      (fun ~pool ->
        let t = Selective.run ~pool () in
        let cv = Crossval.run_selective ~pool () in
        {
          markdown =
            body [ Selective.to_markdown t; Crossval.selective_to_markdown cv ];
          tables =
            [
              ( "selective",
                "E14: selective hardening — overhead and P-BOX bytes, full vs \
                 validator-certified elision",
                Selective.table t );
              ( "selective_diff",
                "E14a: selective-hardening differential (verdicts and Progen \
                 output vs full hardening)",
                Crossval.selective_table cv );
            ];
          summary =
            [
              Printf.sprintf "mean overhead saved: %s; mean P-BOX bytes saved: %.1f%%"
                (Sutil.Texttable.fmt_pct t.mean_delta)
                t.mean_pbox_saving_pct;
              "selective differential: "
              ^
              if cv.all_identical then "bit-identical to full hardening on every case"
              else "FAILED - selective hardening changed an observable";
            ];
        });
  }

let serve =
  {
    id = "serve";
    heading = "E15 — hardened multi-tenant server runtime (extension)";
    claim =
      "The batch harnesses above probe one (defense, attack) cell at a \
       time; lib/server runs the fleet the way the paper's threat model \
       frames it — a long-lived service facing an adversarial client mix.  \
       One hardened tenant per session app serves a deterministic schedule \
       of benign request flows, batch-harness attack sessions and \
       chaos-faulted flows, dispatched over the worker pool and replayed \
       through a virtual-time FCFS admission queue with load shedding.  \
       Shapes to check: the report is byte-identical at any --jobs and on \
       either engine (every number derives from VM cycles); overload sheds \
       sessions without dropping any; and every served attack session \
       reproduces the batch harness's verdict exactly \
       (batch-verdict mismatches = 0).";
    run =
      (fun ~pool ->
        let t = Serve.run ~pool () in
        let s = t.summary in
        {
          markdown = body [ Serve.to_markdown t ];
          tables =
            [
              ( "server",
                "E15: server runtime — mixed benign+attack traffic under load",
                Serve.summary_table t );
              ("server_tenants", "E15: per-tenant service and security", Serve.tenant_table t);
            ];
          summary =
            [
              Printf.sprintf
                "peak %d concurrent sessions; %d batch-verdict mismatches over %d checks"
                s.Server.Metrics.peak_open s.Server.Metrics.batch_mismatches
                s.Server.Metrics.batch_checked;
            ];
        });
  }

let campaign =
  {
    id = "campaign";
    heading = "E16 — artifact store: warm replay and resumable campaigns (extension)";
    claim =
      "lib/store caches every execution's observables on disk, \
       content-addressed on (source digest, hardening fingerprint, engine \
       kind, seed), with atomic tmp+rename writes and quarantine-on-corruption \
       (DESIGN.md §14).  A campaign over a Progen seed range consults the \
       store before touching the VM, so a warm re-run — or a run resumed \
       after a mid-campaign kill — replays cached observables and renders \
       the byte-identical report.  Checked here: a cold campaign against a \
       fresh store misses every key and a warm re-run hits every key, and \
       both report digests (a hash over every observable of every program \
       in seed order) are identical.";
    run =
      (fun ~pool ->
        let t = Replay.run ~pool () in
        {
          markdown = body [ Replay.to_markdown t ];
          tables =
            [
              ( "campaign",
                "E16: store-backed campaign over 200 progen programs",
                Store.Campaign.report_table t.cold );
              ( "campaign_store",
                "E16: store counters, cold run vs warm replay",
                Replay.stats_table t );
            ];
          summary =
            [
              Printf.sprintf "cold misses: %d; warm hits: %d; digests identical: %b"
                t.cold_stats.misses t.warm_stats.hits (Replay.digests_identical t);
            ];
        });
  }

let attack =
  {
    id = "attack";
    heading = "E17 — automated DOP-attack compiler (extension)";
    claim =
      "lib/offense closes the offense loop: instead of the hand-written \
       attack corpus, a chain planner classifies typed gadgets out of the \
       static DOP-pair enumeration (E13) and the per-function victim \
       analysis, learns arithmetic gadget semantics by probing the \
       attacker's own unhardened replica on the reference engine, and \
       compiles chain programs — direct branch flips, pointer re-aim \
       writes, and double-and-add dispatcher loops — down to overflow \
       payloads against each target's concrete frame layout.  Every chain \
       then runs against the defense ladder (undefended, selective, full \
       Smokestack).  Shapes to check: at least one synthesized chain lands \
       on the undefended build and none land on full hardening; the \
       brute-force entropy measured for the synthesized families sits next \
       to the hand-written corpus number for the same program; and every \
       chain that lands dynamically is grounded in statically enumerated \
       DOP pairs over its own buffer (the E13 feedback loop, now over \
       machine-generated attacks).  Input-free Progen programs expose no \
       read_input-reachable overflow, so they honestly synthesize zero \
       deliverable chains and appear only in the synthesis table.";
    run =
      (fun ~pool ->
        let t = Offense.run ~pool ~progen:10 () in
        {
          markdown = body [ Offense.to_markdown t ];
          tables =
            [
              ( "offense",
                "E17: synthesized attack chains vs defenses (successes/trials)",
                Offense.chain_table t );
              ("offense_synth", "E17: attack-compiler synthesis summary", Offense.synth_table t);
              ( "offense_entropy",
                "E17: brute-force entropy under full hardening, synthesized vs \
                 hand-written",
                Offense.entropy_table t );
              ( "offense_feedback",
                "E17: static grounding of landing chains",
                Offense.feedback_table t );
            ];
          summary =
            [
              Printf.sprintf
                "chains landing undefended: %d; full-hardening successes: %d; \
                 all landing chains grounded: %b"
                t.landed_unhardened t.full_successes t.all_grounded;
            ];
        });
  }

let resilience =
  {
    id = "resilience";
    heading = "E18 — resilient server control plane (extension)";
    claim =
      "lib/server grows a control plane: session affinity ties every \
       session to a stable client identity, per-client circuit breakers \
       convert the restart-after-crash assumption into exponential \
       virtual-time backoff (and quarantine for persistent offenders), \
       WFQ priority classes (paying / standard / suspect) replace blind \
       FCFS shedding, and sustained fault pressure flips the fleet into \
       graceful degradation that starves suspects before paying traffic. \
       Shapes to check: for at least one hand-written and one synthesized \
       attack family the affinity-on brute-force cost is strictly higher \
       than the anonymous-fleet cost (quarantine or imposed backoff), \
       reported next to the Entropy_an prediction; under the fault storm \
       the resilient cell admits no more attack sessions than the \
       baseline while benign p99 stays within 10%; and batch-verdict \
       mismatches are zero in every cell — admission policy never changes \
       what a session computes.";
    run =
      (fun ~pool ->
        let t = Resilience.run ~pool () in
        {
          markdown = body [ Resilience.to_markdown t ];
          tables =
            [
              ( "resilience",
                "E18: brute-force cost vs full hardening, session affinity off \
                 vs breakers on",
                Resilience.cost_table t );
              ( "resilience_fleet",
                "E18: fleet under a fault storm, FCFS baseline vs control plane",
                Resilience.fleet_table t );
              ( "resilience_classes",
                "E18: per-class service in the resilient cell",
                Resilience.class_table t );
            ];
          summary =
            [
              Printf.sprintf
                "hand-written cost strictly higher: %b; synthesized: %b; benign \
                 p99 ratio: %.3f; mismatches: %d"
                t.hand_higher t.synth_higher t.benign_p99_ratio t.mismatches;
            ];
        });
  }

let leaks =
  {
    id = "leaks";
    heading =
      "E19 — layout-leak cross-validation and the leak-guided attack (extension)";
    claim =
      "Analysis.Leakan tracks taint from the layout secrets (ss.rand \
       draws, P-BOX rows, slot and slice addresses) through interprocedural \
       flow summaries to observable sinks, classifies each flow (direct \
       value, address disclosure, comparison oracle) and prices it in \
       disclosed bits that degrade the E12 brute-force entropy.  E19 \
       cross-validates the static verdict dynamically: every corpus program \
       runs fully hardened under several entropy seeds with fixed input — \
       output-visible leaks and seed-dependent outputs must coincide \
       exactly.  On the disclosing stack-leaky target, the planner's leak \
       guides drive the disclosure-guided brute walk next to the blind one; \
       the measured guided attempts must sit within a factor of 3 of the \
       degraded-entropy prediction corrected by the sampled \
       layout-reachability factor, and far below the blind cost.  Shapes \
       to check: zero static/dynamic disagreements, and the guided walk \
       lands inside the bound while the blind walk exhausts its budget.";
    run =
      (fun ~pool ->
        let t = Leakcheck.run ~pool () in
        {
          markdown = body [ Leakcheck.to_markdown t ];
          tables =
            [
              ( "leaks",
                "E19: static layout-leak verdict vs dynamic seed-variance, full \
                 hardening",
                Leakcheck.table t );
              ( "leaks_guided",
                "E19: leak-guided attack vs blind Algorithm-1 walk (stack-leaky)",
                Leakcheck.guided_table t );
            ];
          summary =
            [
              Printf.sprintf
                "static/dynamic disagreements: %d; guided within factor-3 bound: %s"
                t.disagreements
                (match t.guided with
                | None -> "NO GUIDED CHAIN"
                | Some g -> if g.within_bound then "yes" else "NO");
            ];
        });
  }

let all =
  [
    table1; fig3; fig4; bypass; pentest; realvuln; ablation; brute; entropy;
    rngsec; rerand; analysis; chaos; selective; serve; campaign; attack;
    resilience; leaks;
  ]

let section e r = Printf.sprintf "## %s\n\n%s\n\n%s" e.heading e.claim r.markdown

let header =
  "# EXPERIMENTS — paper vs. measured\n\n\
   Generated by `dune exec bin/smokestackc.exe -- experiments -o \
   EXPERIMENTS.md`.  Absolute numbers come from the repository's \
   cycle-accurate VM, not the paper's Xeon D-1541 testbed; the claims to \
   check are the *shapes*: orderings, rough factors, and which attacks \
   succeed where.  See DESIGN.md for the substitutions.\n\n"

let report runs =
  header ^ String.concat "" (List.map (fun (e, r) -> section e r) runs)

let write_json ~dir r =
  List.iter
    (fun (name, title, tbl) ->
      let oc = open_out (Filename.concat dir (Printf.sprintf "BENCH_%s.json" name)) in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Sutil.Json.doc_to_channel ~indent:true oc (Sutil.Texttable.to_json ~title tbl)))
    r.tables
