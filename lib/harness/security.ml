type cell = {
  attack_name : string;
  defense : Defenses.Defense.t;
  verdicts : Attacks.Verdict.t list;
  success_rate : float;
}

type t = { title : string; cells : cell list }

let trials ?(pool = Sched.Pool.sequential) attack applied ~n ~seed0 =
  Sched.Pool.run_all pool
    (List.init n (fun i ->
         let seed = Int64.of_int (seed0 + (1000 * i)) in
         Sched.Job.v ~id:(Printf.sprintf "trial/%d" i) ~seed (fun () ->
             attack applied ~seed)))

let mk_cell attack_name defense verdicts =
  {
    attack_name;
    defense;
    verdicts;
    success_rate = Attacks.Verdict.success_rate verdicts;
  }

let defenses () = Defenses.Defense.all ()

(* Row order of each report: names into the Apps.Sessions registry. *)
let pentest_cases =
  [ "stack-direct"; "stack-indirect"; "data-direct"; "data-indirect";
    "heap-direct"; "heap-indirect" ]

let realvuln_cases =
  [ "librelp/key-leak"; "wireshark/CVE-2014-2299"; "proftpd/key-extraction";
    "proftpd/bot"; "proftpd/mem-permissions" ]

let case name =
  match Apps.Sessions.find_attack name with
  | Some c -> c
  | None -> invalid_arg ("Harness.Security: no attack case " ^ name)

(* One job per (case, defense) cell: the job builds its own applied
   program (a fresh Ir.Prog copy) and runs its trials, so nothing is
   shared between jobs but the read-only source program, pre-forced in
   the submitting domain. *)
let case_cells ~pool ~exp ~trials_per_cell ~build_seed ~seed0 names defenses =
  Sched.Pool.run_all pool
    (List.concat_map
       (fun name ->
         let app, atk = case name in
         let prog = Lazy.force app.Apps.Sessions.sprogram in
         List.map
           (fun d ->
             Sched.Job.v
               ~id:
                 (Printf.sprintf "%s/%s/%s" exp name (Defenses.Defense.name d))
               ~seed:build_seed
               (fun () ->
                 let applied = Defenses.Defense.apply ~seed:build_seed d prog in
                 mk_cell name d
                   (trials
                      (Apps.Dopkit.verdict_of atk.Apps.Sessions.attack)
                      applied ~n:trials_per_cell ~seed0)))
           defenses)
       names)

let pentest ?(pool = Sched.Pool.sequential) ?(trials_per_cell = 12)
    ?(build_seed = 3L) () =
  {
    title = "E5: synthetic DOP penetration tests (success rate per attempt)";
    cells =
      case_cells ~pool ~exp:"e5" ~trials_per_cell ~build_seed ~seed0:17
        pentest_cases (defenses ());
  }

let bypass_prior ?(pool = Sched.Pool.sequential) ?(trials_per_cell = 12)
    ?(builds = 12) () =
  let prog = Lazy.force Apps.Librelp.program in
  let strategies =
    [
      ( "librelp/static-analysis",
        Apps.Dopkit.verdict_of Apps.Librelp.attack_static );
      ("librelp/disclosure", Apps.Librelp.attack_disclosure);
    ]
  in
  let cells =
    Sched.Pool.run_all pool
      (List.concat_map
         (fun (name, attack) ->
           List.map
             (fun d ->
               Sched.Job.v
                 ~id:(Printf.sprintf "e4/%s/%s" name (Defenses.Defense.name d))
                 ~seed:3L
                 (fun () ->
                   (* per-build randomization: every trial gets a fresh
                      build, so the rate reads "fraction of builds
                      exploitable" *)
                   let per_build =
                     match d with
                     | Defenses.Defense.Forrest_pad | Defenses.Defense.Static_perm
                       ->
                         true
                     | _ -> false
                   in
                   let verdicts =
                     if per_build then
                       List.init builds (fun b ->
                           let applied =
                             Defenses.Defense.apply
                               ~seed:(Int64.of_int (100 + b))
                               d prog
                           in
                           attack applied ~seed:(Int64.of_int (17 + (1000 * b))))
                     else
                       let applied = Defenses.Defense.apply ~seed:3L d prog in
                       trials attack applied ~n:trials_per_cell ~seed0:17
                   in
                   mk_cell name d verdicts))
             (defenses ()))
         strategies)
  in
  { title = "E4: librelp CVE-2018-1000140 vs prior stack randomizations"; cells }

let realvuln ?(pool = Sched.Pool.sequential) ?(trials_per_cell = 12)
    ?(build_seed = 3L) () =
  {
    title = "E6: real-vulnerability DOP exploits, undefended vs Smokestack";
    cells =
      case_cells ~pool ~exp:"e6" ~trials_per_cell ~build_seed ~seed0:29
        realvuln_cases
        [
          Defenses.Defense.No_defense;
          Defenses.Defense.Smokestack Smokestack.Config.default;
        ];
  }

let rng_security ?(pool = Sched.Pool.sequential) ?(trials_per_cell = 12)
    ?(build_seed = 3L) () =
  let prog = Lazy.force Apps.Librelp.program in
  let cells =
    Sched.Pool.run_all pool
      (List.map
         (fun scheme ->
           Sched.Job.v ~id:("e10/" ^ Rng.Scheme.name scheme) ~seed:build_seed
             (fun () ->
               let config =
                 Smokestack.Config.with_scheme scheme Smokestack.Config.default
               in
               let d = Defenses.Defense.Smokestack config in
               let applied = Defenses.Defense.apply ~seed:build_seed d prog in
               mk_cell "librelp/state-disclosure" d
                 (trials Apps.Librelp.attack_pseudo_state applied
                    ~n:trials_per_cell ~seed0:61)))
         Rng.Scheme.all)
  in
  {
    title =
      "E10: state-disclosure prediction vs randomness scheme (Table I's \
       security column, executed)";
    cells;
  }

type rerand_row = { interval : int; rr_success_rate : float }

let rerandomization ?(pool = Sched.Pool.sequential) ?(trials_per_cell = 12)
    ?(intervals = [ 1; 8; 64 ]) () =
  let prog = Lazy.force Apps.Librelp.program in
  Sched.Pool.run_all pool
    (List.map
       (fun interval ->
         Sched.Job.v ~id:(Printf.sprintf "e11/interval-%d" interval) ~seed:3L
           (fun () ->
             let config =
               { Smokestack.Config.default with redraw_interval = interval }
             in
             let applied =
               Defenses.Defense.apply ~seed:3L
                 (Defenses.Defense.Smokestack config)
                 prog
             in
             let verdicts =
               trials Apps.Librelp.attack_probe_then_exploit applied
                 ~n:trials_per_cell ~seed0:83
             in
             { interval; rr_success_rate = Attacks.Verdict.success_rate verdicts }))
       intervals)

let rerand_table rows =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("redraw interval (requests)", Sutil.Texttable.Right);
          ("probe-then-exploit success", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          string_of_int r.interval;
          Printf.sprintf "%.0f%%" (r.rr_success_rate *. 100.);
        ])
    rows;
  tbl

let rerand_to_markdown rows =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    "| redraw interval (requests) | probe-then-exploit success |\n|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "| %d | %.0f%% |\n" r.interval
           (r.rr_success_rate *. 100.)))
    rows;
  Buffer.contents buf

type brute_row = {
  bdefense : Defenses.Defense.t;
  attempts_to_success : int option;
  budget : int;
  detected_along_the_way : int;
}

let brute ?(pool = Sched.Pool.sequential) ?(max_attempts = 400)
    ?(build_seed = 3L) () =
  let prog = Lazy.force Apps.Librelp.program in
  Sched.Pool.run_all pool
    (List.map
       (fun d ->
         Sched.Job.v ~id:("e9/" ^ Defenses.Defense.name d) ~seed:build_seed
           (fun () ->
             let applied = Defenses.Defense.apply ~seed:build_seed d prog in
             let result =
               Attacks.Bruteforce.run ~max_attempts (fun i ->
                   Apps.Dopkit.verdict_of Apps.Librelp.attack_static applied
                     ~seed:(Int64.of_int (5000 + i)))
             in
             {
               bdefense = d;
               attempts_to_success =
                 (if result.succeeded then Some result.attempts else None);
               budget = max_attempts;
               detected_along_the_way =
                 List.length
                   (List.filter
                      (function Attacks.Verdict.Detected _ -> true | _ -> false)
                      result.verdicts);
             }))
       (defenses ()))

let table t =
  let names = List.sort_uniq compare (List.map (fun c -> c.attack_name) t.cells) in
  let ds = List.sort_uniq compare (List.map (fun c -> c.defense) t.cells) in
  let tbl =
    Sutil.Texttable.create
      ~columns:
        (("attack", Sutil.Texttable.Left)
        :: List.map (fun d -> (Defenses.Defense.name d, Sutil.Texttable.Right)) ds)
  in
  List.iter
    (fun name ->
      Sutil.Texttable.add_row tbl
        (name
        :: List.map
             (fun d ->
               match
                 List.find_opt
                   (fun c -> c.attack_name = name && c.defense = d)
                   t.cells
               with
               | Some c -> Printf.sprintf "%.0f%%" (c.success_rate *. 100.)
               | None -> "-")
             ds))
    names;
  tbl

let to_markdown t =
  let names = List.sort_uniq compare (List.map (fun c -> c.attack_name) t.cells) in
  let ds = List.sort_uniq compare (List.map (fun c -> c.defense) t.cells) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    ("| attack | "
    ^ String.concat " | " (List.map Defenses.Defense.name ds)
    ^ " |\n|---|" ^ String.concat "" (List.map (fun _ -> "---|") ds) ^ "\n");
  List.iter
    (fun name ->
      Buffer.add_string buf ("| " ^ name ^ " | ");
      Buffer.add_string buf
        (String.concat " | "
           (List.map
              (fun d ->
                match
                  List.find_opt
                    (fun c -> c.attack_name = name && c.defense = d)
                    t.cells
                with
                | Some c -> Printf.sprintf "%.0f%%" (c.success_rate *. 100.)
                | None -> "-")
              ds));
      Buffer.add_string buf " |\n")
    names;
  Buffer.contents buf

let brute_table rows =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("defense", Sutil.Texttable.Left);
          ("attempts to success", Sutil.Texttable.Right);
          ("detections en route", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          Defenses.Defense.name r.bdefense;
          (match r.attempts_to_success with
          | Some n -> string_of_int n
          | None -> Printf.sprintf "> %d (gave up)" r.budget);
          string_of_int r.detected_along_the_way;
        ])
    rows;
  tbl

let brute_to_markdown rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "| defense | attempts to success | detections en route |\n|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %d |\n"
           (Defenses.Defense.name r.bdefense)
           (match r.attempts_to_success with
           | Some n -> string_of_int n
           | None -> Printf.sprintf "> %d (gave up)" r.budget)
           r.detected_along_the_way))
    rows;
  Buffer.contents buf
