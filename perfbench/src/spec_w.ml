(* The [spec] workload: the fourteen Apps.Spec kernels, each run once
   per leg per pass.  Long runs where VM dispatch, memory and the
   Smokestack intrinsics do almost all the work. *)

let fuel = 400_000_000

type kernel = {
  w : Apps.Spec.workload;
  chunks : string list;
  plain : Defenses.Defense.applied;
  hardened : Defenses.Defense.applied;
}

type t = { kernels : kernel list; seed : int64 }

(* The workload seed picks the P-BOX row shuffles and every run's
   entropy; the kernels and their inputs are fixed. *)
let run_seed seed = Int64.add 1L seed

let setup ~seed =
  let kernels =
    List.map
      (fun (w : Apps.Spec.workload) ->
        let prog = Minic.Driver.compile w.source in
        {
          w;
          chunks = Harness.Workbench.chunks_of_input w.input;
          plain = Defenses.Defense.apply Defenses.Defense.No_defense prog;
          hardened =
            Defenses.Defense.apply ~seed:(run_seed seed)
              (Defenses.Defense.Smokestack Leg.harden_config) prog;
        })
      Apps.Spec.all
  in
  { kernels; seed }

(* The set-up again, split into its layers for the traced run:
   compile, harden without validation, then validate on its own. *)
let traced_setup spans ~seed =
  List.iter
    (fun (w : Apps.Spec.workload) ->
      let prog = Span.with_ spans "minic.compile" (fun () -> Minic.Driver.compile w.source) in
      let h =
        Span.with_ spans "core.harden" (fun () ->
            Smokestack.Harden.harden ~seed:(run_seed seed) ~validate:false Leg.harden_config
              prog)
      in
      let verdict =
        Span.with_ spans "analysis.validate" (fun () ->
            Analysis.Validate.result ~original:prog h)
      in
      Check.expect (Result.is_ok verdict) "spec %s: hardened build fails validation" w.wname)
    Apps.Spec.all

type record = {
  kernel : string;
  leg : Leg.t;
  secs : float;
  minor_words : float;
  outcome : Machine.Exec.outcome;
  stats : Machine.Exec.stats;
  run_id : int;
}

let same_observables (a : record) (b : record) =
  a.outcome = b.outcome
  && String.equal a.stats.output b.stats.output
  && a.stats.instr_count = b.stats.instr_count
  && Int64.equal (Int64.bits_of_float a.stats.cycles) (Int64.bits_of_float b.stats.cycles)

let check_kernel name records =
  let find engine hardened =
    List.find (fun r -> r.leg.Leg.engine = engine && r.leg.hardened = hardened) records
  in
  List.iter
    (fun r ->
      Check.expect (r.outcome = Machine.Exec.Exit 0L) "spec %s %s: %s" name (Leg.name r.leg)
        (Machine.Exec.outcome_to_string r.outcome))
    records;
  List.iter
    (fun engine ->
      let p = find engine false and h = find engine true in
      Check.expect (String.equal p.stats.output h.stats.output)
        "spec %s %s: hardened output differs from plain" name (Leg.engine_name engine))
    [ Machine.Backend.Reference; Machine.Backend.Bytecode ];
  List.iter
    (fun hardened ->
      Check.expect
        (same_observables
           (find Machine.Backend.Reference hardened)
           (find Machine.Backend.Bytecode hardened))
        "spec %s: ref and bytecode disagree (%s)" name
        (if hardened then "hardened" else "plain"))
    [ false; true ]

(* One pass: every kernel on every leg, legs interleaved per kernel so
   drift in host speed spreads evenly over them.  With [spans] each run
   is a traced run with its own run id. *)
let pass ?spans ?(next_run = ref 0) t =
  List.concat_map
    (fun k ->
      let records =
        List.map
          (fun leg ->
            let backend = Hook.traced_backend spans (Leg.backend leg) in
            let applied = if leg.Leg.hardened then k.hardened else k.plain in
            let run_id = !next_run in
            incr next_run;
            Option.iter (fun s -> Span.set_run s run_id) spans;
            let w0 = Gc.minor_words () in
            let (outcome, stats), secs =
              Clock.time (fun () ->
                  Hook.span spans "spec.run" (fun () ->
                      Apps.Runner.run_chunks ~backend ~fuel applied ~seed:(run_seed t.seed)
                        ~chunks:k.chunks))
            in
            let minor_words = Gc.minor_words () -. w0 in
            { kernel = k.w.wname; leg; secs; minor_words; outcome; stats; run_id })
          Leg.all
      in
      Check.ops (List.length records);
      check_kernel k.w.wname records;
      records)
    t.kernels

let leg_seconds records leg =
  List.fold_left (fun acc r -> if r.leg = leg then acc +. r.secs else acc) 0. records
