(* The traced run: the per-layer metrics.

   Whatever workload it is asked for, it covers all three, so every
   per-layer metric is printed by every traced run.  For each workload
   it makes one untraced pass (the reference for the tracing overhead,
   and where the GC and per-kernel numbers come from) and one traced
   pass that records a span around each call into a layer's public
   functions.  Spans are kept in memory; self times are computed once
   all passes are done, and the spans are written to [out/spans.tsv].

   The end-to-end runs use every leg of every workload; the traced run
   keeps to the legs the tools run by default where a workload's leg
   does not matter to a layer: campaign and serve run hardened on the
   reference engine. *)

let nproc = Domain.recommended_domain_count ()
let ms_of_ns ns = float_of_int ns *. 1e-6
let default_leg = { Leg.engine = Machine.Backend.Reference; hardened = true }

type gc_window = { minor : int; major : int; top_mb : float }

(* GC counters over [f], with the heap's peak sampled at the end of
   every major cycle inside it.  A full major collection first, so the
   previous workload's garbage does not count. *)
let with_gc_window f =
  Gc.full_major ();
  let peak = ref (Gc.quick_stat ()).heap_words in
  let sample () = peak := max !peak (Gc.quick_stat ()).heap_words in
  let alarm = Gc.create_alarm sample in
  let s0 = Gc.quick_stat () in
  let r = f () in
  sample ();
  Gc.delete_alarm alarm;
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor = s1.minor_collections - s0.minor_collections;
      major = s1.major_collections - s0.major_collections;
      top_mb = float_of_int (!peak * (Sys.word_size / 8)) /. 1048576.;
    } )

type ctx = {
  spans : Span.t;
  out : string;
  seed : int64;
  mutable metrics : Metric.t list;
  mutable counts : (string * string) list;  (** deterministic, must repeat exactly *)
  mutable next_run : int;
}

let add c name unit_ v = c.metrics <- Metric.v name unit_ v :: c.metrics
let count c name v = c.counts <- (name, v) :: c.counts
let count_int c name n = count c name (string_of_int n)

let fresh_run c =
  let id = c.next_run in
  c.next_run <- id + 1;
  Span.set_run c.spans id;
  id

let set_of ids =
  let h = Hashtbl.create (List.length ids) in
  List.iter (fun i -> Hashtbl.replace h i ()) ids;
  Hashtbl.mem h

let durations_ms c ?run label =
  List.map (fun i -> ms_of_ns (Span.duration_ns c.spans i)) (Span.select ?run c.spans label)

let sum = List.fold_left ( +. ) 0.
let mean_or_zero = function [] -> 0. | xs -> Sutil.Stats.mean xs

let gc_metrics c w (g : gc_window) =
  add c ("gc.minor_collections." ^ w) "count" (float_of_int g.minor);
  add c ("gc.major_collections." ^ w) "count" (float_of_int g.major);
  add c ("gc.top_heap_mb." ^ w) "MB" g.top_mb

let overhead c w ~traced ~untraced =
  add c ("trace.overhead_pct." ^ w) "%" (100. *. (traced -. untraced) /. untraced)

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)

let probes c =
  add c "crypto.aes_block_us" "us" (Probes.aes_block_us ());
  add c "rng.aes10_draw_us" "us" (Probes.aes10_draw_us ());
  let prep_ms, prep_mb = Probes.prepare () in
  add c "machine.prepare_ms" "ms" prep_ms;
  add c "machine.prepare_alloc_mb" "MB" prep_mb;
  let put_ms, find_ms = Probes.store ~out:c.out in
  add c "store.probe.put_ms" "ms" put_ms;
  add c "store.probe.find_ms" "ms" find_ms

(* ------------------------------------------------------------------ *)
(* spec                                                                *)

(* Returns the metrics that need self times, as a closure. *)
let spec c =
  Spec_w.traced_setup c.spans ~seed:c.seed;
  Span.set_run c.spans (-1);
  add c "analysis.validate_ms" "ms" (Sutil.Stats.mean (durations_ms c "analysis.validate"));
  let t = Spec_w.setup ~seed:c.seed in
  let (untraced, wall_u), gc = with_gc_window (fun () -> Clock.time (fun () -> Spec_w.pass t)) in
  gc_metrics c "spec" gc;
  let next_run = ref c.next_run in
  let traced, wall_t = Clock.time (fun () -> Spec_w.pass ~spans:c.spans ~next_run t) in
  c.next_run <- !next_run;
  overhead c "spec" ~traced:wall_t ~untraced:wall_u;
  let on leg (r : Spec_w.record) = r.leg = leg in
  let instrs pred records =
    List.fold_left
      (fun a (r : Spec_w.record) -> if pred r then a + r.stats.instr_count else a)
      0 records
  in
  (* From the untraced pass: per-kernel times, allocation, instruction counts. *)
  List.iter
    (fun (r : Spec_w.record) ->
      if r.leg.hardened then
        add c
          (Printf.sprintf "spec.%s.%s.hardened_ms" r.kernel (Leg.engine_name r.leg.engine))
          "ms" (1e3 *. r.secs);
      count c
        (Printf.sprintf "spec.%s.%s" r.kernel (Leg.name r.leg))
        (Printf.sprintf "instrs=%d calls=%d cycles=%h" r.stats.instr_count r.stats.call_count
           r.stats.cycles))
    untraced;
  List.iter
    (fun engine ->
      let plain = on { Leg.engine; hardened = false } in
      let words =
        sum (List.filter_map (fun r -> if plain r then Some r.Spec_w.minor_words else None) untraced)
      in
      add c
        (Printf.sprintf "engine.%s.minor_words_per_instr" (Leg.engine_name engine))
        "words"
        (words /. float_of_int (instrs plain untraced)))
    [ Machine.Backend.Reference; Machine.Backend.Bytecode ];
  List.iter
    (fun hardened ->
      add c
        (if hardened then "machine.instrs.hardened" else "machine.instrs.plain")
        "count"
        (float_of_int (instrs (on { Leg.engine = Machine.Backend.Reference; hardened }) untraced)))
    [ false; true ];
  fun self ->
    let runs_of pred =
      set_of
        (List.filter_map (fun (r : Spec_w.record) -> if pred r then Some r.run_id else None) traced)
    in
    (* Run time minus intrinsic time: the engine's own dispatch work. *)
    List.iter
      (fun (leg : Leg.t) ->
        let spans = Span.select ~run:(runs_of (on leg)) c.spans (Hook.run_span leg.engine) in
        let self_s = float_of_int (List.fold_left (fun a i -> a + self.(i)) 0 spans) *. 1e-9 in
        add c
          (Printf.sprintf "engine.%s.mips" (Leg.name leg))
          "Mi/s"
          (float_of_int (instrs (on leg) traced) /. self_s /. 1e6))
      Leg.all;
    let hardened_on engine (r : Spec_w.record) = r.leg = { Leg.engine; hardened = true } in
    let run_ms pred =
      sum
        (List.concat_map
           (fun engine -> durations_ms c ~run:(runs_of pred) (Hook.run_span engine))
           [ Machine.Backend.Reference; Machine.Backend.Bytecode ])
    in
    let intr_stats ?(pred = fun (r : Spec_w.record) -> r.leg.hardened) names =
      let ds =
        List.concat_map
          (fun n -> durations_ms c ~run:(runs_of pred) (Hook.intrinsic_span n))
          names
      in
      (List.length ds, sum ds)
    in
    let intrinsic key names =
      let calls, total_ms = intr_stats names in
      add c (Printf.sprintf "runtime.%s.calls" key) "count" (float_of_int calls);
      add c
        (Printf.sprintf "runtime.%s.us_per_call" key)
        "us"
        (if calls = 0 then 0. else 1e3 *. total_ms /. float_of_int calls);
      (calls, total_ms)
    in
    let hardened_ms = run_ms (fun r -> r.leg.hardened) in
    let _, rand_ms = intrinsic "ss_rand" [ Smokestack.Abi.intr_rand ] in
    add c "runtime.ss_rand.share_pct" "%" (100. *. rand_ms /. hardened_ms);
    List.iter
      (fun engine ->
        let _, ms = intr_stats ~pred:(hardened_on engine) [ Smokestack.Abi.intr_rand ] in
        add c
          (Printf.sprintf "runtime.ss_rand.share_pct.%s" (Leg.engine_name engine))
          "%"
          (100. *. ms /. run_ms (hardened_on engine)))
      [ Machine.Backend.Reference; Machine.Backend.Bytecode ];
    let _, dyn_ms = intrinsic "ss_layout_dynamic" [ Smokestack.Abi.intr_layout_dynamic ] in
    add c "runtime.ss_layout_dynamic.share_pct" "%" (100. *. dyn_ms /. hardened_ms);
    ignore (intrinsic "fid" [ Smokestack.Abi.intr_fid_key; Smokestack.Abi.intr_fid_assert ]);
    (* Intrinsic call counts per kernel are deterministic. *)
    let per_run = Span.count_by_run c.spans in
    List.iter
      (fun (r : Spec_w.record) ->
        if r.leg.hardened then
          List.iter
            (fun n ->
              count_int c
                (Printf.sprintf "spec.%s.%s.%s" r.kernel (Leg.name r.leg) n)
                (per_run r.run_id (Hook.intrinsic_span n)))
            Hook.intrinsics)
      traced

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)

(* Store.Campaign's per-program call sequence, replayed call by call.
   The key and the build seed repeat the campaign's own, which the
   check after the replay confirms: a warm campaign over the replay's
   store hits every program and reproduces the campaign digest. *)
let campaign_harden_seed = 3L

let replay_key (cfg : Store.Campaign.config) source =
  Store.Key.of_source ~source_text:source ~config:cfg.harden ~engine:cfg.engine
    ~seed:cfg.exec_seed
    ~extra:(Printf.sprintf "campaign;fuel=%d;hseed=%Ld" cfg.fuel campaign_harden_seed)
    ()

let dir_bytes dir =
  let rec go acc path =
    if Sys.is_directory path then
      Array.fold_left (fun acc e -> go acc (Filename.concat path e)) acc (Sys.readdir path)
    else (fst acc + (Unix.stat path).st_size, snd acc + 1)
  in
  go (0, 0) dir

let campaign c pool =
  let leg = default_leg in
  let t = Campaign_w.setup ~seed:c.seed ~out:c.out in
  let r, gc = with_gc_window (fun () -> Campaign_w.run_leg t leg) in
  gc_metrics c "campaign" gc;
  let n = Campaign_w.count in
  add c "campaign.cold_programs_per_s" "1/s" (float_of_int n /. r.cold_s);
  add c "campaign.warm_programs_per_s" "1/s" (float_of_int n /. r.warm_s);
  add c "store.hit_rate_pct" "%" (100. *. float_of_int r.hits /. float_of_int (r.hits + r.misses));
  count c "campaign.digest" r.report.digest;
  count_int c "campaign.total_instrs" r.report.total_instrs;
  let cfg = Campaign_w.config ~seed:c.seed leg in
  let hcfg = Option.get cfg.harden in
  let backend = Hook.backend c.spans (Leg.backend leg) in
  let dir, store = Campaign_w.fresh_store ~out:c.out "replay" in
  let sp = c.spans in
  let pbox = ref 0 in
  let pseeds = List.init n (fun i -> Int64.add cfg.seed (Int64.of_int i)) in
  let cold_ids, cold_s =
    Clock.time (fun () ->
        List.map
          (fun pseed ->
            let id = fresh_run c in
            Span.with_ sp "campaign.program" (fun () ->
                let source =
                  Span.with_ sp "minic.progen" (fun () -> Minic.Progen.generate ~seed:pseed)
                in
                let key = Span.with_ sp "store.key" (fun () -> replay_key cfg source) in
                let cached = Span.with_ sp "store.find" (fun () -> Store.Cache.find store key) in
                Check.expect (Option.is_none cached) "campaign replay %Ld: fresh store hit" pseed;
                let prog = Span.with_ sp "minic.compile" (fun () -> Minic.Driver.compile source) in
                let h =
                  Span.with_ sp "core.harden" (fun () ->
                      Smokestack.Harden.harden ~seed:campaign_harden_seed ~validate:false hcfg prog)
                in
                let entropy = Crypto.Entropy.create ~seed:(Int64.add cfg.exec_seed pseed) in
                let st =
                  Span.with_ sp "core.prepare" (fun () -> Smokestack.Harden.prepare ~entropy h)
                in
                let result = backend.run ~fuel:cfg.fuel st in
                let pbox_bytes = Smokestack.Harden.pbox_bytes h in
                pbox := !pbox + pbox_bytes;
                Span.with_ sp "store.put" (fun () ->
                    Store.Cache.put store key
                      (Store.Entry.exec_entry (Store.Entry.exec_of_run ~pbox_bytes result))));
            id)
          pseeds)
  in
  let warm_ids =
    List.map
      (fun pseed ->
        let id = fresh_run c in
        Span.with_ sp "campaign.program" (fun () ->
            let source = Span.with_ sp "minic.progen" (fun () -> Minic.Progen.generate ~seed:pseed) in
            let key = Span.with_ sp "store.key" (fun () -> replay_key cfg source) in
            let hit = Span.with_ sp "store.find" (fun () -> Store.Cache.find store key) in
            Check.expect
              (Option.is_some (Option.bind hit Store.Entry.exec_of_entry))
              "campaign replay %Ld: warm lookup missed" pseed);
        id)
      pseeds
  in
  Span.set_run sp (-1);
  overhead c "campaign" ~traced:cold_s ~untraced:r.cold_s;
  Store.Cache.reset_stats store;
  let again = Store.Campaign.run ~store cfg in
  let st = Store.Cache.stats store in
  Check.expect ~n
    (st.hits = n && String.equal again.digest r.report.digest)
    "campaign replay: %d of %d hits, digest %s vs %s" st.hits n again.digest r.report.digest;
  let bytes, files = dir_bytes (Filename.concat dir "objects") in
  add c "store.entry_bytes" "bytes" (float_of_int bytes /. float_of_int (max 1 files));
  Campaign_w.rm_rf dir;
  add c "core.pbox_bytes" "count" (float_of_int !pbox);
  count_int c "campaign.pbox_bytes" !pbox;
  (* The same cold phase at pool width nproc. *)
  let dir, store = Campaign_w.fresh_store ~out:c.out "wide" in
  let wide, wide_s = Clock.time (fun () -> Store.Campaign.run ~pool ~store cfg) in
  Campaign_w.rm_rf dir;
  Check.expect ~n
    (String.equal wide.digest r.report.digest)
    "campaign at width %d: digest differs" nproc;
  add c "sched.campaign.speedup" "x" (r.cold_s /. wide_s);
  fun self ->
    let cold = set_of cold_ids and warm = set_of warm_ids in
    let all id = cold id || warm id in
    let mean ?(run = all) label = mean_or_zero (durations_ms c ~run label) in
    add c "minic.progen_ms" "ms" (mean "minic.progen");
    add c "minic.compile_ms" "ms" (mean "minic.compile");
    add c "core.harden_ms" "ms" (mean "core.harden");
    add c "core.prepare_ms" "ms" (mean "core.prepare");
    add c "store.key_ms" "ms" (mean "store.key");
    add c "store.put_ms" "ms" (mean "store.put");
    add c "store.find_miss_ms" "ms" (mean ~run:cold "store.find");
    add c "store.find_hit_ms" "ms" (mean ~run:warm "store.find");
    let runs = Span.select ~run:cold c.spans (Hook.run_span leg.engine) in
    add c "machine.run_ms" "ms"
      (mean_or_zero (List.map (fun i -> ms_of_ns self.(i)) runs))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve c pool =
  let leg = default_leg in
  let fleet = Serve_w.build_fleet ~seed:c.seed leg in
  let r, gc = with_gc_window (fun () -> Serve_w.run_leg fleet leg) in
  gc_metrics c "serve" gc;
  let s = r.summary in
  add c "server.shed" "count" (float_of_int s.shed);
  add c "server.rejected" "count" (float_of_int s.rejected);
  add c "server.dropped" "count" (float_of_int s.dropped);
  List.iter
    (fun (k, v) -> count_int c ("serve." ^ k) v)
    [
      ("served", s.served); ("shed", s.shed); ("rejected", s.rejected); ("dropped", s.dropped);
      ("detected", s.detected); ("successes", s.successes); ("batch_checked", s.batch_checked);
      ("chaos_fired", s.chaos_fired); ("peak_open", s.peak_open);
    ];
  count c "serve.report" (Digest.to_hex (Digest.string r.text));
  (* Traced: the same schedule, one Session.run per session. *)
  let sp = c.spans in
  let cfg = Serve_w.traffic ~seed:c.seed in
  let (applied, specs), setup_s =
    Clock.time (fun () ->
        let applied =
          List.map
            (fun (tn : Server.Tenant.t) ->
              (tn.id, Span.with_ sp "server.tenant_prepare" (fun () -> Server.Tenant.prepare tn)))
            fleet.tenants
        in
        let specs =
          Span.with_ sp "server.traffic" (fun () -> Server.Traffic.generate cfg fleet.tenants)
        in
        (applied, specs))
  in
  let backend = Hook.backend sp (Leg.backend leg) in
  let kinds = Hashtbl.create 1500 in
  let outcomes, exec_s =
    Clock.time (fun () ->
        List.map
          (fun (spec : Server.Session.spec) ->
            let id = fresh_run c in
            Hashtbl.replace kinds id (Server.Session.kind_label spec.kind);
            Span.with_ sp "server.session" (fun () ->
                Server.Session.run ~backend ~applied:(List.assoc spec.tenant.id applied) spec))
          specs)
  in
  Span.set_run sp (-1);
  let d, admit_s =
    Clock.time (fun () ->
        Span.with_ sp "server.admit" (fun () -> Server.Dispatch.admit Serve_w.dispatch_config outcomes))
  in
  Check.expect
    (String.equal (Serve_w.report fleet.tenants d) r.text)
    "serve replay: report differs from Dispatch.run's";
  overhead c "serve" ~traced:(setup_s +. exec_s +. admit_s) ~untraced:r.secs;
  add c "server.tenant_prepare_ms" "ms" (sum (durations_ms c "server.tenant_prepare"));
  add c "server.traffic_ms" "ms" (sum (durations_ms c "server.traffic"));
  add c "server.admit_ms" "ms" (sum (durations_ms c "server.admit"));
  List.iter
    (fun kind ->
      let xs =
        durations_ms c
          ~run:(fun id -> Hashtbl.find_opt kinds id = Some kind)
          "server.session"
      in
      match Stats.tail_of xs with
      | None -> Check.expect false "serve: %d %s sessions, too few for a median" (List.length xs) kind
      | Some t ->
          add c ("server.session_ms.p50." ^ kind) "ms" t.p50;
          add c ("server.session_ms.tail." ^ kind) "ms" t.tail;
          add c ("server.session_ms.tail_pct." ^ kind) "%" t.tail_pct;
          add c ("server.sessions." ^ kind) "count" (float_of_int t.samples))
    [ "benign"; "attack"; "chaos" ];
  (* The same dispatch at width 1 and at width nproc, alternating. *)
  let dispatch pool =
    let w = Serve_w.run_leg ~pool fleet leg in
    Check.expect (String.equal w.text r.text) "serve at width %d: report differs"
      (Sched.Pool.jobs pool);
    w.secs
  in
  let rounds = List.init 2 (fun _ -> (dispatch Sched.Pool.sequential, dispatch pool)) in
  let narrow = List.map fst rounds and wide = List.map snd rounds in
  let med = Sutil.Stats.median wide and lo, hi = Sutil.Stats.min_max wide in
  add c "sched.serve.speedup" "x" (Sutil.Stats.median narrow /. med);
  add c "sched.serve.spread_pct" "%" (100. *. (hi -. lo) /. med)

(* ------------------------------------------------------------------ *)

let counts_json counts =
  Sutil.Json.Obj (List.rev_map (fun (k, v) -> (k, Sutil.Json.String v)) counts)

(* Deterministic counts differing from the committed reference for the
   same seed, when there is one. *)
let count_mismatches c =
  let path = Printf.sprintf "perfbench/results/counts-seed%Ld.json" c.seed in
  if not (Sys.file_exists path) then begin
    Printf.eprintf "no committed counts for seed %Ld (%s)\n%!" c.seed path;
    0
  end
  else
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Sutil.Json.of_string text with
    | Error e ->
        Printf.eprintf "%s: %s\n%!" path e;
        List.length c.counts
    | Ok reference ->
        List.fold_left
          (fun n (k, v) ->
            match Option.bind (Sutil.Json.member k reference) Sutil.Json.to_str_opt with
            | Some v' when String.equal v v' -> n
            | _ ->
                Printf.eprintf "count %s = %s differs from %s\n%!" k v path;
                n + 1)
          0 c.counts

let section name f =
  let r, secs = Clock.time f in
  Printf.eprintf "traced %s: %.1f s\n%!" name secs;
  r

let run _workload ~seed ~out =
  let c = { spans = Span.create (); out; seed; metrics = []; counts = []; next_run = 0 } in
  section "probes" (fun () -> probes c);
  let pool = Sched.Pool.create ~jobs:nproc () in
  let spec_self = section "spec" (fun () -> spec c) in
  let campaign_self = section "campaign" (fun () -> campaign c pool) in
  section "serve" (fun () -> serve c pool);
  let st = Sched.Pool.stats pool in
  Sched.Pool.close pool;
  add c "sched.width" "count" (float_of_int nproc);
  add c "sched.jobs_run" "count" (float_of_int st.jobs_run);
  add c "sched.peak_queue" "count" (float_of_int st.peak_queue);
  section "self times" (fun () ->
      let self = Span.self_ns c.spans in
      spec_self self;
      campaign_self self);
  let oc = open_out (Filename.concat out (Printf.sprintf "counts-seed%Ld.json" seed)) in
  Sutil.Json.doc_to_channel ~indent:true oc (counts_json c.counts);
  close_out oc;
  add c "counts.mismatches" "count" (float_of_int (count_mismatches c));
  section "write spans" (fun () -> Span.write c.spans (Filename.concat out "spans.tsv"));
  List.rev c.metrics
