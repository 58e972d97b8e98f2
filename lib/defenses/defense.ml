type t =
  | No_defense
  | Stack_base
  | Forrest_pad
  | Static_perm
  | Canary
  | Smokestack of Smokestack.Config.t

let name = function
  | No_defense -> "none"
  | Stack_base -> "stack-base"
  | Forrest_pad -> "forrest-pad"
  | Static_perm -> "static-perm"
  | Canary -> "canary"
  | Smokestack config ->
      Printf.sprintf "smokestack(%s)" (Rng.Scheme.name config.Smokestack.Config.scheme)

let all ?(smokestack = Smokestack.Config.default) () =
  [ No_defense; Stack_base; Forrest_pad; Static_perm; Canary; Smokestack smokestack ]

type applied = {
  defense : t;
  prog : Ir.Prog.t;
  fresh_state : Crypto.Entropy.t -> Machine.Exec.state;
  pbox_bytes : int;
}

let apply ?(seed = 1L) defense prog =
  match defense with
  | No_defense ->
      let prog = Ir.Prog.copy prog in
      {
        defense;
        prog;
        fresh_state = (fun _entropy -> Machine.Exec.prepare prog);
        pbox_bytes = 0;
      }
  | Stack_base ->
      let prog = Ir.Prog.copy prog in
      {
        defense;
        prog;
        fresh_state =
          (fun entropy ->
            let st = Machine.Exec.prepare prog in
            Stack_base.install ~entropy st;
            st);
        pbox_bytes = 0;
      }
  | Forrest_pad ->
      let prog = Ir.Prog.copy prog in
      Ir.Pass.run [ Forrest.pass (Sutil.Simrng.create ~seed) ] prog;
      {
        defense;
        prog;
        fresh_state = (fun _entropy -> Machine.Exec.prepare prog);
        pbox_bytes = 0;
      }
  | Static_perm ->
      let prog = Ir.Prog.copy prog in
      Ir.Pass.run [ Static_perm.pass (Sutil.Simrng.create ~seed) ] prog;
      {
        defense;
        prog;
        fresh_state = (fun _entropy -> Machine.Exec.prepare prog);
        pbox_bytes = 0;
      }
  | Canary ->
      let prog = Ir.Prog.copy prog in
      Ir.Pass.run [ Canary.pass ] prog;
      {
        defense;
        prog;
        fresh_state =
          (fun entropy ->
            let st = Machine.Exec.prepare prog in
            Canary.install ~entropy st;
            st);
        pbox_bytes = 0;
      }
  | Smokestack config ->
      let hardened = Smokestack.Harden.harden ~seed config prog in
      {
        defense;
        prog = hardened.prog;
        fresh_state =
          (fun entropy -> Smokestack.Harden.prepare ~entropy hardened);
        pbox_bytes = Smokestack.Harden.pbox_bytes hardened;
      }
