(* Differential validation of execution engines.

   Runs the same prepared program under two backends and demands
   bit-identical observables, as Machine.Agree defines them.  Used by
   test/test_engine.ml as a tier-1 gate and available to experiments
   and benchmarks as a preflight check.  A store-served leg
   is compared on its decoded exec record, which carries the same
   rendered outcome and bit-exact stats a fresh leg does. *)

type mismatch = { case : string; diff : Machine.Agree.diff }
type report = { cases : int; mismatches : mismatch list }

let ok r = r.mismatches = []

let mismatch_to_string m =
  Printf.sprintf "%s: %s (reference vs bytecode)" m.case
    (Machine.Agree.diff_to_string m.diff)

let report_to_string r =
  if ok r then Printf.sprintf "%d case(s), all observables identical" r.cases
  else
    Printf.sprintf "%d case(s), %d mismatch(es):\n%s" r.cases
      (List.length r.mismatches)
      (String.concat "\n" (List.map mismatch_to_string r.mismatches))

let mismatches ~case diff =
  Option.to_list (Option.map (fun diff -> { case; diff }) diff)

let backends () =
  (* referencing the engine's backend value (not just the registry)
     guarantees the library is linked into whoever uses Diffval *)
  (Machine.Backend.reference, Engine.Backend.backend)

let check_applied ~case ?(fuel = 400_000_000) ~seed ~chunks applied =
  let reference, bytecode = backends () in
  let run backend =
    Apps.Runner.run_chunks ~backend ~fuel applied ~seed ~chunks
  in
  mismatches ~case (Machine.Agree.runs (run reference) (run bytecode))

let defenses_under_test =
  [ Defenses.Defense.No_defense;
    Defenses.Defense.Smokestack Smokestack.Config.default ]

let check_apps ?(pool = Sched.Pool.sequential) ?fuel () =
  Workbench.force_programs Apps.Spec.all;
  let mismatches =
    List.concat
      (Sched.Pool.run_all pool
         (List.concat_map
            (fun (w : Apps.Spec.workload) ->
              List.map
                (fun d ->
                  let case =
                    Printf.sprintf "%s/%s" w.wname (Defenses.Defense.name d)
                  in
                  Sched.Job.v ~id:("diffval/" ^ case) ~seed:1L (fun () ->
                      let applied =
                        Defenses.Defense.apply ~seed:3L d (Lazy.force w.program)
                      in
                      check_applied ~case ?fuel ~seed:1L
                        ~chunks:(Workbench.chunks_of_input w.input)
                        applied))
                defenses_under_test)
            Apps.Spec.all))
  in
  { cases = List.length Apps.Spec.all * List.length defenses_under_test;
    mismatches }

let check_progen ?(pool = Sched.Pool.sequential) ?store ?(fuel = 2_000_000)
    ~seed count =
  let reference, bytecode = backends () in
  let mismatches =
    List.concat
      (Sched.Pool.run_all pool
         (List.map
            (fun (pseed, source) ->
              let case = Printf.sprintf "progen seed %Ld" pseed in
              Sched.Job.v ~id:("diffval/" ^ case) ~seed:pseed (fun () ->
                  let prog = lazy (Minic.Driver.compile source) in
                  let leg (backend : Machine.Backend.t) =
                    let fresh () =
                      Store.Entry.exec_of_run
                        (backend.run ~fuel
                           (Machine.Exec.prepare (Lazy.force prog)))
                    in
                    let exec =
                      match store with
                      | None -> fresh ()
                      | Some store ->
                          (* each engine gets its own key: the store must
                             never launder one engine's observables into
                             the other's leg of the comparison *)
                          let key =
                            Store.Key.of_source ~source_text:source
                              ~config:None ~engine:backend.kind ~seed:0L
                              ~extra:(Printf.sprintf "diffval;fuel=%d" fuel)
                              ()
                          in
                          Store.Cache.memo store key
                            ~decode:Store.Entry.exec_of_entry
                            ~encode:Store.Entry.exec_entry fresh
                    in
                    (exec.Store.Entry.outcome, exec.Store.Entry.stats)
                  in
                  mismatches ~case
                    (Machine.Agree.first_diff (leg reference) (leg bytecode))))
            (List.of_seq (Minic.Progen.range ~seed count))))
  in
  { cases = count; mismatches }
