(** The perf-smoke guards' shared kernel. Every guard makes the same
    three decisions, and makes them here:

    - how a pair of host wall clocks is timed ({!pair}): interleaved
      min-of-[reps], the baseline timed twice so the host's clock can
      vouch for itself;
    - whether a bound is enforced ({!check}): only where the host has
      the cores the bound presumes and, for noise-gated rules, where the
      two baseline minima agree within the gate. Elsewhere the value is
      reported honestly and not enforced;
    - how a result is recorded: one {!row} per metric, in one list that
      the bench --json writer emits as the report's [guards] array.

    The guarded metrics, their bounds and their enforcement conditions
    are one table, at the top of the guard section of
    [bench/experiments.ml]. *)

type better = Higher | Lower

(** One guard measurement, as it lands in BENCH_mssp.json. [bound] is
    [None] on a report-only row (raw wall clocks, throughputs, per-kernel
    ratios), which is never enforced. [noise] is [None] where nothing
    was timed. *)
type row = {
  guard : string;
  metric : string;
  value : float;
  unit : string;
  better : better;
  bound : float option;
  noise : float option;
  enforced : bool;
  host_cores : int;
}

(** A guarded metric: its bound, and when that bound is enforced. *)
type rule

val rule :
  guard:string ->
  metric:string ->
  unit:string ->
  better:better ->
  ?min_cores:int ->
  ?noise_gate:float ->
  float ->
  rule
(** [rule ~guard ~metric ~unit ~better bound]: the value must be [<=]
    ([Lower]) or [>=] ([Higher]) [bound], met exactly included. Enforced
    on hosts with at least [min_cores] cores (default 1: always) and,
    when [noise_gate] is given, only if the measured noise is at most
    the gate. *)

val time : (unit -> 'a) -> float * 'a
(** Wall seconds of one call, and its result. *)

val pair : reps:int -> base:(unit -> float) -> cand:(unit -> float) -> float * float * float
(** [pair ~reps ~base ~cand] returns [(min base, min cand, noise)]. Each
    side is one call that returns its own wall seconds. One untimed
    warm-up call of each side first; then each rep runs base, cand,
    base, with a major collection before every call. With [b1] and [b2]
    the minima of the first and second base series,
    [noise = |b1 - b2| / min b1 b2]. *)

val check : ?cores:int -> ?noise:float -> rule -> float -> unit
(** Records the rule's row, prints its note line, and raises [Failure]
    when the bound is enforced and violated (a NaN value violates any
    bound). [cores] defaults to [Domain.recommended_domain_count ()].
    @raise Invalid_argument on a noise-gated rule given no [noise]. *)

val report :
  guard:string -> metric:string -> unit:string -> better:better -> float -> unit
(** Records and prints a report-only row: [bound = None], [noise = None],
    [enforced = false]. *)

val rows : unit -> row list
(** Every row recorded so far, in recording order. *)

val to_json : row -> Json_out.t
(** One row as a JSON object with exactly the nine {!row} keys. *)
