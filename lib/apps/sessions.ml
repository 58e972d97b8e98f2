type attack = {
  aname : string;
  attack : Dopkit.exploit;
  witnesses : (string * string * string * string) list;
}

type app = {
  sname : string;
  sdescription : string;
  ssource : string;
  sprogram : Ir.Prog.t Lazy.t;
  benign : Sutil.Simrng.t -> string list;
  sattacks : attack list;
}

let run_benign ?backend ?arm applied ~seed ~chunks =
  let outcome, stats = Runner.run_chunks ?backend ?arm applied ~seed ~chunks in
  {
    Dopkit.verdict = Attacks.Verdict.classify outcome ~goal_met:false;
    stats = Some stats;
    requests = List.length chunks;
  }

(* ------------------------------------------------------------------ *)
(* Benign request flows.  Sizes are chosen to stay inside each target's
   legitimate envelope: proftpd commands must keep [512 - n*8] positive
   in sreplace (n <= 63 bytes); wireshark's capture loop consumes one
   frame of at most 255 bytes; the synthetic servers read into 64-byte
   buffers; librelp SANs just need to stay short and end on a name the
   peer check accepts. *)

let proftpd_flow rng =
  let middle () =
    match Sutil.Simrng.int rng ~bound:5 with
    | 0 -> Printf.sprintf "CWD /srv/data/%02d" (Sutil.Simrng.int rng ~bound:100)
    | 1 -> Printf.sprintf "RETR file-%03d.dat" (Sutil.Simrng.int rng ~bound:1000)
    | 2 -> "LIST"
    | 3 -> "NOOP"
    | _ -> "PWD"
  in
  let n = 2 + Sutil.Simrng.int rng ~bound:5 in
  [ "USER alice"; "PASS hunter2" ]
  @ List.init n (fun _ -> middle ())
  @ [ "QUIT" ]

let wireshark_flow rng =
  let len = 16 + Sutil.Simrng.int rng ~bound:181 in
  [ String.init len (fun _ -> Char.chr (32 + Sutil.Simrng.int rng ~bound:95)) ]

let librelp_flow rng =
  let extra = Sutil.Simrng.int rng ~bound:3 in
  List.init extra (fun _ ->
      Printf.sprintf "host%02d.example.net" (Sutil.Simrng.int rng ~bound:100))
  @ Librelp.benign_chunks

let synth_flow rng =
  let n = 1 + Sutil.Simrng.int rng ~bound:8 in
  List.init n (fun _ ->
      Printf.sprintf "req-%04x" (Sutil.Simrng.int rng ~bound:65536))

(* ------------------------------------------------------------------ *)
(* The registry of the eleven hand-written exploits.

   Witness sets: which (buffer function, buffer slot, victim function,
   victim slot) tuples each attack corrupts, buffer slot "*" for the
   wild-write channel.  They are read off the exploit implementations
   by hand — e.g. the librelp key leak overflows allNames in
   relpTcpChkPeerName and redirects keyPtr in the caller
   relpTcpLstnInit — and never derived from lib/analysis, so
   Harness.Crossval stays an independent cross-validation rather than
   "the analyzer agrees with itself". *)

let proftpd_witnesses =
  [
    ("sreplace", "buf", "cmd_loop", "op");
    ("sreplace", "buf", "cmd_loop", "delta");
  ]

let wireshark_witnesses =
  let f = "packet_list_dissect_and_cache_record" in
  [ (f, "pd", f, "col"); (f, "pd", f, "cinfo"); (f, "pd", f, "packet_list") ]

let synth_witnesses (v : Synth.variant) =
  match (v.location, v.technique) with
  | `Stack, `Direct ->
      (* direct overflow from buff over the dispatcher operands *)
      [
        ("serve", "buff", "serve", "ctr");
        ("serve", "buff", "serve", "size");
        ("serve", "buff", "serve", "step");
      ]
  | `Stack, `Indirect ->
      (* buff corrupts a data pointer; the wild write lands on the
         bookkeeping slots *)
      [
        ("serve", "buff", "serve", "seen");
        ("serve", "buff", "serve", "stamp");
        ("serve", "*", "serve", "seen");
        ("serve", "*", "serve", "stamp");
        ("serve", "*", "serve", "ticks");
      ]
  | `Data, `Direct | `Heap, `Direct -> [ ("serve", "slots", "serve", "auth") ]
  | `Data, `Indirect | `Heap, `Indirect -> [ ("serve", "*", "serve", "auth") ]

let apps =
  [
    {
      sname = "proftpd";
      sdescription = "FTP session: login, a few transfers, quit";
      ssource = Proftpd.source;
      sprogram = Proftpd.program;
      benign = proftpd_flow;
      sattacks =
        [
          {
            aname = "proftpd/key-extraction";
            attack = Proftpd.attack_key_extraction;
            witnesses = proftpd_witnesses;
          };
          {
            aname = "proftpd/bot";
            attack = Proftpd.attack_bot;
            witnesses = proftpd_witnesses;
          };
          {
            aname = "proftpd/mem-permissions";
            attack = Proftpd.attack_memperm;
            witnesses = proftpd_witnesses;
          };
        ];
    };
    {
      sname = "wireshark";
      sdescription = "capture session: one dissected frame";
      ssource = Wireshark.source;
      sprogram = Wireshark.program;
      benign = wireshark_flow;
      sattacks =
        [
          {
            aname = "wireshark/CVE-2014-2299";
            attack = Wireshark.attack;
            witnesses = wireshark_witnesses;
          };
        ];
    };
    {
      sname = "librelp";
      sdescription = "TLS peer check over a client certificate's SANs";
      ssource = Librelp.source;
      sprogram = Librelp.program;
      benign = librelp_flow;
      sattacks =
        [
          {
            aname = "librelp/key-leak";
            attack = Librelp.attack_static;
            witnesses =
              [
                ( "relpTcpChkPeerName",
                  "allNames",
                  "relpTcpLstnInit",
                  "keyPtr" );
              ];
          };
        ];
    };
  ]
  @ List.map
      (fun (v : Synth.variant) ->
        {
          sname = "synth-" ^ v.vname;
          sdescription = "synthetic request server (" ^ v.vname ^ ")";
          ssource = v.source;
          sprogram = v.program;
          benign = synth_flow;
          sattacks =
            [
              {
                aname = v.vname;
                attack = v.attack;
                witnesses = synth_witnesses v;
              };
            ];
        })
      Synth.variants

let find name = List.find_opt (fun a -> String.equal a.sname name) apps

let attacks =
  List.concat_map (fun app -> List.map (fun atk -> (app, atk)) app.sattacks) apps

let find_attack aname =
  List.find_opt (fun (_, atk) -> String.equal atk.aname aname) attacks
