(** The adaptation loop: distill, run, feed the measured squash
    attribution back into the distiller, repeat.

    Round 0 is the static distillation. Every later round converts the
    previous run's squash rate into a {!Mssp_distill.Distill.feedback}
    record (split when squashing, merge + strongly-live elision when
    not), re-distills the same program against the same training
    profile, and re-runs under the same machine config. Since the
    machine verifies every commit, each round's final architected state
    is the sequential one regardless of how aggressive the distillation
    got — rounds compare by simulated cycles alone, and {!t.best} is
    simply the fastest halted one.

    Deterministic end to end: the loop consumes only simulated
    quantities (cycles, squash counts), so the chosen round — and the
    E19 bench guard built on it — is bit-identical across hosts. *)

type round = {
  index : int;  (** 0 = static distillation *)
  feedback : Mssp_distill.Distill.feedback option;
  distilled : Mssp_distill.Distill.t;
  result : Mssp_machine.result;
}

type t = {
  rounds : round list;  (** execution order, round 0 first *)
  best : round;
      (** fewest simulated cycles among halted rounds, earliest round
          winning ties; round 0 when no adapted round halted *)
}

val feedback_of :
  config:Mssp_config.t -> Mssp_machine.result -> Mssp_distill.Distill.feedback
(** The feedback a run generates: its squash rate, the config's task
    size as the merge target, and elision enabled iff the squash rate
    is at most [Pass.split_threshold]. *)

val run :
  ?rounds:int ->
  ?options:Mssp_distill.Distill.options ->
  config:Mssp_config.t ->
  Mssp_isa.Program.t ->
  Mssp_profile.Profile.t ->
  t
(** [run ~config program profile] executes round 0 plus [rounds]
    (default 1) adapted rounds. When [config.predict] is on and
    [config.predict_warmup] is empty, the warm-up is filled from the
    profile's per-address observation streams first, so the predictor
    does not start cold. *)

val round_cycles : round -> int
val round_squashes : round -> int
val pp_round : Format.formatter -> round -> unit
