module Cell = Mssp_state.Cell
module Full = Mssp_state.Full
module Live_in = Mssp_state.Live_in
module Reg = Mssp_isa.Reg
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Exec = Mssp_seq.Exec
module Spec = Mssp_seq.Sblock.Spec

type fail_reason =
  | Budget_exhausted
  | Fault of Exec.fault
  | Missing_cell of Cell.t
  | Io_speculative of Cell.t

type completion = Reached_boundary | Program_halted

type status = Running | Complete of completion | Failed of fail_reason

let pp_status fmt = function
  | Running -> Format.pp_print_string fmt "running"
  | Complete Reached_boundary -> Format.pp_print_string fmt "complete (boundary)"
  | Complete Program_halted -> Format.pp_print_string fmt "complete (halt)"
  | Failed Budget_exhausted -> Format.pp_print_string fmt "failed (budget)"
  | Failed (Fault f) -> Format.fprintf fmt "failed (%a)" Exec.pp_fault f
  | Failed (Missing_cell c) ->
    Format.fprintf fmt "failed (missing %a)" Cell.pp c
  | Failed (Io_speculative c) ->
    Format.fprintf fmt "failed (speculative I/O on %a)" Cell.pp c

type t = {
  id : int;
  start_pc : int;
  end_pc : int option;
  end_occurrence : int;
  mutable end_seen : int;
  budget : int;
  live_in : Live_in.t;
  reads : Journal.t;
  writes : Journal.t;
  mutable executed : int;
  mutable status : status;
  decode : pc:int -> word:int -> Mssp_isa.Instr.t option;
}

let make ?reads ?writes ~id ~start_pc ~end_pc ~end_occurrence ~budget ~live_in
    () =
  (* the checkpoint is read in place: its PC and registers off its flat
     array, its memory part — the master's cumulative dirty set, shared
     with every other checkpoint since the master's last seed — probed
     inside its cached bounds. Nothing is copied per task. *)
  let live_in =
    if Live_in.has_pc live_in then live_in
    else Live_in.add Cell.Pc start_pc live_in
  in
  let journal = function Some j -> j | None -> Journal.create () in
  {
    id;
    start_pc;
    end_pc;
    end_occurrence = max 1 end_occurrence;
    end_seen = 0;
    budget;
    live_in;
    reads = journal reads;
    writes = journal writes;
    executed = 0;
    status = Running;
    decode = Exec.default_decode;
  }

let with_decode decode t = { t with decode }

type view = Isolated | Fallback of Full.t

let no_access (_ : int) = ()

(* The executor callbacks for one task run, built once (not once per
   instruction): reads resolve write buffer -> live-in -> view with flat
   journal probes, writes land in the write journal, and the first I/O
   touch is latched in [io] (reset before each instruction). *)
type ctx = {
  c_read : Cell.t -> int option;
  c_write : Cell.t -> int -> unit;
  c_io : Cell.t option ref;
}

let make_ctx ?(on_access = no_access) t view =
  let io = ref None in
  let read c =
    match c with
    | Cell.Reg r ->
      let i = Reg.to_int r in
      if Journal.has_reg t.writes i then Some (Journal.reg t.writes i)
      else if Live_in.has_reg t.live_in i then begin
        let v = Live_in.reg t.live_in i in
        if not (Journal.has_reg t.reads i) then Journal.set_reg t.reads i v;
        Some v
      end
      else (
        match view with
        | Fallback arch ->
          let v = Full.get_reg arch r in
          if not (Journal.has_reg t.reads i) then Journal.set_reg t.reads i v;
          Some v
        | Isolated -> None)
    | Cell.Pc ->
      if Journal.has_pc t.writes then Some (Journal.pc_value t.writes)
      else if Live_in.has_pc t.live_in then begin
        let v = Live_in.pc t.live_in in
        if not (Journal.has_pc t.reads) then Journal.set_pc t.reads v;
        Some v
      end
      else (
        match view with
        | Fallback arch ->
          let v = Full.pc arch in
          if not (Journal.has_pc t.reads) then Journal.set_pc t.reads v;
          Some v
        | Isolated -> None)
    | Cell.Mem a -> (
      if Layout.is_io a && !io = None then io := Some c;
      on_access a;
      match Journal.find_mem t.writes a with
      | Some _ as r -> r
      | None ->
        let v =
          match Live_in.find_mem t.live_in a with
          | Some v -> v
          | None -> (
            match view with
            | Fallback arch -> Full.get_mem arch a
            | Isolated ->
              (* memory is total: absent cells read as 0 and that
                 reading is itself a live-in to verify *)
              0)
        in
        Journal.record_mem t.reads a v;
        Some v)
  in
  let write c v =
    match c with
    | Cell.Reg r -> Journal.set_reg t.writes (Reg.to_int r) v
    | Cell.Pc -> Journal.set_pc t.writes v
    | Cell.Mem a ->
      if Layout.is_io a && !io = None then io := Some c;
      on_access a;
      Journal.set_mem t.writes a v
  in
  { c_read = read; c_write = write; c_io = io }

let step_ctx t ctx =
  match t.status with
  | Complete _ | Failed _ -> t.status
  | Running ->
    if t.executed >= t.budget then begin
      t.status <- Failed Budget_exhausted;
      t.status
    end
    else begin
      ctx.c_io := None;
      (* [decode] only short-circuits decoding of the fetched word (via a
         pre-decoded image); the fetch itself still goes through
         [c_read], so live-in recording and the access hook see exactly
         the single-step sequence — slaves stay on the lowest rung of the
         superblock fallback ladder by design *)
      let outcome =
        Exec.step_with ~decode:t.decode ~read:ctx.c_read ~write:ctx.c_write
      in
      (match !(ctx.c_io) with
      | Some c ->
        (* the instruction touched the I/O region: discard it (its buffered
           writes are never committed; the task fails before [executed]
           counts the instruction) *)
        t.status <- Failed (Io_speculative c)
      | None -> (
        match outcome with
        | Exec.Stepped -> begin
          t.executed <- t.executed + 1;
          match t.end_pc with
          | Some end_pc
            when Journal.has_pc t.writes && Journal.pc_value t.writes = end_pc
            ->
            t.end_seen <- t.end_seen + 1;
            if t.end_seen >= t.end_occurrence then
              t.status <- Complete Reached_boundary
          | _ -> ()
        end
        | Exec.Halted -> t.status <- Complete Program_halted
        | Exec.Fault f -> t.status <- Failed (Fault f)
        | Exec.Missing c -> t.status <- Failed (Missing_cell c)));
      t.status
    end

let step ?on_access t view = step_ctx t (make_ctx ?on_access t view)

(* --- block-journaled execution (the slave superblock rung) -----------

   The per-instruction interpreter above pays, for every instruction, a
   closure-dispatched [Exec.step_with], three journal probes and two
   option allocations for the PC, and three to four more probes for the
   fetch. The block path below runs the task body from a {!Spec} cache
   of pre-decoded straight-line regions instead: the PC lives in the
   block index and is flushed to the write journal once at block exit,
   bound cells resolve straight off the journal fast arrays, and a
   block's unbound fetches are staged as first-reads into the reads
   journal's insertion-order log — the [s_covered] watermark skips even
   the staging probes on re-dispatch. The observable contract is
   bit-identity with the interpreter: same status, same [executed], same
   write buffer, same [on_access] sequence, and a first-read stream
   identical in content and order (the differential suite and the SJRNLG
   bench guard enforce this, like PR 6's SBLKG does for the master).

   Like the master's step, the executor is closure-free: every helper is
   a top-level function, and the loop state (block, index, limit) rides
   in tail-call arguments, so a dispatch allocates nothing. Dispatch
   always enters a block at index 0, so at index [i] exactly [i] of its
   instructions have retired. Reads resolve write buffer, then the
   task's own recorded first-read, then live-in, then architected state:
   neither of the last two changes while a task body runs (the
   checkpoint is immutable and architected state is frozen during
   dispatch), so a recorded first-read is the value either would give
   again, and a repeated read costs two flat probes.

   The cache is meant to be SHARED across the task runs of one slave
   (the machine passes [?engine] and keeps one per slave): MSSP tasks
   average around a hundred instructions, far too short to amortize
   block building per run, but consecutive tasks execute the same
   static code, so a slave-lifetime cache builds each block once.
   Sharing is what forces builds to resolve words from architected
   state only — a cached block must not embed one task's write-buffer
   or live-in values — and the executor refuses to dispatch a block
   whose span the current task's write buffer or live-in might shadow
   ([shadowed] probe below, O(1) off their address bounds): such spans
   run on the single-step rung, whose fetch consults both.
   The architected words inside a block stay trustworthy because every
   store into architected state between runs is reported to the cache
   (task commits, chaos corruption) or drops it whole (recovery
   segments) — and a first-read is staged for every fetched word
   anyway, so verification would catch a stale one exactly as it
   catches any other mispredicted live-in.

   The fallback ladder is the interpreter itself, one instruction at a
   time, exactly where the master engine falls back: entry at a word
   that does not decode (the fault probe), entry in the I/O region, and
   shadowed spans. A [Ld]/[St]/[Out] whose data address turns out
   speculative-I/O is finished in the block with the interpreter's
   exact latch-and-fail behaviour ([block_io_fail]). A store that
   invalidates cached blocks ([Spec.note_store]) forces block exit after
   the store, the PR 6 SMC rule. Isolated-view tasks stay entirely on
   the interpreter: their reads can be [Missing], which only the
   single-step path models. *)

let block_read_reg t arch r =
  let k = Reg.to_int r in
  if k = 0 then 0
  else if Journal.has_reg t.writes k then Journal.reg t.writes k
  else if Journal.has_reg t.reads k then Journal.reg t.reads k
  else begin
    let v =
      if Live_in.has_reg t.live_in k then Live_in.reg t.live_in k
      else Full.get_reg arch r
    in
    Journal.set_reg t.reads k v;
    v
  end

let block_write_reg t r v =
  let k = Reg.to_int r in
  if k <> 0 then Journal.set_reg t.writes k v

(* data read, I/O already latched or ruled out by the caller *)
let block_read_mem t on_access arch a =
  on_access a;
  let p = Journal.mem_pos t.writes a in
  if p >= 0 then Journal.mem_value t.writes p
  else
    let p = Journal.mem_pos t.reads a in
    if p >= 0 then Journal.mem_value t.reads p
    else begin
      let v =
        match Live_in.find_mem t.live_in a with
        | Some v -> v
        | None -> Full.get_mem arch a
      in
      Journal.record_mem t.reads a v;
      v
    end

(* data write into the buffer; [true] when the store dropped cached
   blocks (this one may be stale) and the block must be left *)
let block_write_mem t on_access eng a v =
  on_access a;
  Journal.set_mem t.writes a v;
  Spec.note_store eng a

(* fetch: charged on every execution; staged as a first-read only past
   the covered watermark, and only when the word resolved outside the
   write buffer at build time (stores since then would have dropped the
   block, so the provenance cannot be stale) *)
let block_fetch t on_access (b : Spec.sblock) i pc =
  on_access pc;
  if i >= b.Spec.s_covered then begin
    if Array.unsafe_get b.Spec.s_live i then
      Journal.record_mem t.reads pc (Array.unsafe_get b.Spec.s_words i);
    b.Spec.s_covered <- i + 1
  end

(* block exit: the retirements and the PC land in the task once *)
let block_leave t retired np =
  t.executed <- t.executed + retired;
  if retired > 0 then Journal.set_pc t.writes np

(* a speculative I/O touch at index [i]: the instruction has completed
   into the write buffer with the interpreter's exact latch semantics;
   fail the task without retiring it ([executed] counts only [0, i)) —
   bit-for-bit the single-step [Io_speculative] path *)
let block_io_fail t i a pc =
  t.executed <- t.executed + i;
  Journal.set_pc t.writes (pc + 1);
  t.status <- Failed (Io_speculative (Cell.mem a))

let rec block_exec t on_access arch eng (b : Spec.sblock) lim i =
  let pc = b.Spec.s_start + i in
  match Array.unsafe_get b.Spec.s_instrs i with
  | Instr.Nop | Instr.Fork _ ->
    block_fetch t on_access b i pc;
    block_retire t on_access arch eng b lim i (pc + 1) false
  | Instr.Alu (op, rd, rs1, rs2) ->
    block_fetch t on_access b i pc;
    let v1 = block_read_reg t arch rs1 in
    block_write_reg t rd (Instr.eval_alu op v1 (block_read_reg t arch rs2));
    block_retire t on_access arch eng b lim i (pc + 1) false
  | Instr.Alui (op, rd, rs1, imm) ->
    block_fetch t on_access b i pc;
    block_write_reg t rd (Instr.eval_alu op (block_read_reg t arch rs1) imm);
    block_retire t on_access arch eng b lim i (pc + 1) false
  | Instr.Li (rd, imm) ->
    block_fetch t on_access b i pc;
    block_write_reg t rd imm;
    block_retire t on_access arch eng b lim i (pc + 1) false
  | Instr.Ld (rd, rs1, off) ->
    let a = block_read_reg t arch rs1 + off in
    block_fetch t on_access b i pc;
    block_write_reg t rd (block_read_mem t on_access arch a);
    if Layout.is_io a then block_io_fail t i a pc
    else block_retire t on_access arch eng b lim i (pc + 1) false
  | Instr.St (rs2, rs1, off) ->
    let a = block_read_reg t arch rs1 + off in
    block_fetch t on_access b i pc;
    let v = block_read_reg t arch rs2 in
    if Layout.is_io a then begin
      on_access a;
      Journal.set_mem t.writes a v;
      block_io_fail t i a pc
    end
    else
      block_retire t on_access arch eng b lim i (pc + 1)
        (block_write_mem t on_access eng a v)
  | Instr.Br (c, rs1, rs2, off) ->
    block_fetch t on_access b i pc;
    let v1 = block_read_reg t arch rs1 in
    let taken = Instr.eval_cmp c v1 (block_read_reg t arch rs2) in
    block_retire t on_access arch eng b lim i
      (if taken then pc + off else pc + 1)
      false
  | Instr.Jmp off ->
    block_fetch t on_access b i pc;
    block_retire t on_access arch eng b lim i (pc + off) false
  | Instr.Jal (rd, off) ->
    block_fetch t on_access b i pc;
    block_write_reg t rd (pc + 1);
    block_retire t on_access arch eng b lim i (pc + off) false
  | Instr.Jr rs ->
    block_fetch t on_access b i pc;
    let target = block_read_reg t arch rs in
    block_retire t on_access arch eng b lim i target false
  | Instr.Jalr (rd, rs) ->
    block_fetch t on_access b i pc;
    let target = block_read_reg t arch rs in
    block_write_reg t rd (pc + 1);
    block_retire t on_access arch eng b lim i target false
  | Instr.Out rs ->
    (* mirrors [Exec]: count read, data write, count write — with the
       interpreter's latch semantics if the data slot lands in I/O (the
       instruction completes into the write buffer, then the task fails
       without retiring it) *)
    block_fetch t on_access b i pc;
    let v = block_read_reg t arch rs in
    let count = block_read_mem t on_access arch Layout.out_count_addr in
    let slot = Layout.out_base + count in
    if Layout.is_io slot then begin
      on_access slot;
      Journal.set_mem t.writes slot v;
      on_access Layout.out_count_addr;
      Journal.set_mem t.writes Layout.out_count_addr (count + 1);
      block_io_fail t i slot pc
    end
    else begin
      let inv1 = block_write_mem t on_access eng slot v in
      let inv2 =
        block_write_mem t on_access eng Layout.out_count_addr (count + 1)
      in
      block_retire t on_access arch eng b lim i (pc + 1) (inv1 || inv2)
    end
  | Instr.Halt ->
    (* fetched but never retired, like the interpreter's fixed point;
       the write-buffer PC already names this address unless nothing
       retired yet this dispatch *)
    block_fetch t on_access b i pc;
    t.executed <- t.executed + i;
    if t.executed > 0 then Journal.set_pc t.writes pc;
    t.status <- Complete Program_halted

(* retirement of index [i] with successor [np]: the boundary check runs
   on every retired instruction's successor PC, exactly like the
   interpreter's post-step check; execution stays in the block only on
   a fall-through inside [lim] (the block length capped by the budget) *)
and block_retire t on_access arch eng b lim i np forced =
  let complete =
    match t.end_pc with
    | Some e when np = e ->
      t.end_seen <- t.end_seen + 1;
      t.end_seen >= t.end_occurrence
    | _ -> false
  in
  if complete then begin
    t.status <- Complete Reached_boundary;
    block_leave t (i + 1) np
  end
  else if (not forced) && np = b.Spec.s_start + i + 1 && i + 1 < lim then
    block_exec t on_access arch eng b lim (i + 1)
  else block_leave t (i + 1) np

(* the dispatch PC: the interpreter's [Pc] read without its option —
   the write buffer's, else the live-in's (staged as a first-read) *)
let dispatch_pc t arch =
  if Journal.has_pc t.writes then Journal.pc_value t.writes
  else begin
    let v =
      if Live_in.has_pc t.live_in then Live_in.pc t.live_in else Full.pc arch
    in
    if not (Journal.has_pc t.reads) then Journal.set_pc t.reads v;
    v
  end

(* could the task's write buffer or live-in bind a word of [b]'s span?
   Cached blocks hold architected words; such a span runs single-step *)
let shadowed t (b : Spec.sblock) =
  let lo = b.Spec.s_start in
  let hi = lo + Array.length b.Spec.s_instrs - 1 in
  not
    (Journal.mem_avoids t.writes ~lo ~hi
    && (Live_in.mem_hi t.live_in < lo || Live_in.mem_lo t.live_in > hi))

let rec block_dispatch t on_access arch eng gen peek =
  match t.status with
  | (Complete _ | Failed _) as s -> s
  | Running ->
    if t.executed >= t.budget then begin
      t.status <- Failed Budget_exhausted;
      t.status
    end
    else begin
      (match Spec.lookup_or_build eng ~fetch:peek (dispatch_pc t arch) with
      | Some b when not (shadowed t b) ->
        (* the cache outlives task runs; a block first dispatched by
           this run carries a stale watermark from its previous owner *)
        if b.Spec.s_cover_gen <> gen then begin
          b.Spec.s_cover_gen <- gen;
          b.Spec.s_covered <- 0
        end;
        let len = Array.length b.Spec.s_instrs in
        let remaining = t.budget - t.executed in
        block_exec t on_access arch eng b
          (if remaining < len then remaining else len)
          0
      | Some _ | None ->
        ignore (step ~on_access t (Fallback arch) : status));
      block_dispatch t on_access arch eng gen peek
    end

let run_reference ?(on_access = no_access) t view =
  let ctx = make_ctx ~on_access t view in
  let rec go () = match step_ctx t ctx with Running -> go () | s -> s in
  go ()

let run ?(on_access = no_access) ?engine t view =
  match view with
  | Fallback arch ->
    let eng =
      match engine with
      | Some e -> e
      | None -> Spec.create ~decode:t.decode ()
    in
    (* build-time fetch resolution: architected words only (no staging,
       access traffic or the I/O latch — all charged at execution
       time). Words bound in the write buffer or the live-in must not
       be baked into a shareable block; the [shadowed] probe keeps any
       span they could cover off this path. *)
    let peek a =
      if Layout.is_io a then None else Some (Full.get_mem arch a, true)
    in
    block_dispatch t on_access arch eng (Spec.new_run eng) peek
  | Isolated -> run_reference ~on_access t view

let live_in_size t = Journal.cardinal t.reads
let live_out_size t = Journal.cardinal t.writes
let reads_fragment t = Journal.to_fragment t.reads
let writes_fragment t = Journal.to_fragment t.writes

(* the verification unit's memoization check: every recorded live-in
   still agrees with architected state. Walks the reads journal's own
   layout — PC flag, register mask, memory log — so no cell is boxed
   and no memory live-in is re-hashed *)
let live_ins_consistent t arch =
  let r = t.reads in
  let ok = ref ((not (Journal.has_pc r)) || Journal.pc_value r = Full.pc arch) in
  let i = ref 0 in
  while !ok && !i < Reg.count do
    if Journal.has_reg r !i && Journal.reg r !i <> Full.get_reg arch (Reg.of_int !i)
    then ok := false;
    incr i
  done;
  !ok && Journal.for_all_mem (fun a v -> Full.get_mem arch a = v) r

(* the trace layer's witness: which recorded live-in disagrees, and on
   what values — [Some _] iff [live_ins_consistent] is [false] *)
let first_inconsistent t arch =
  let exception Found of Cell.t * int * int in
  try
    Journal.iter
      (fun c v ->
        let actual = Full.get arch c in
        if actual <> v then raise (Found (c, v, actual)))
      t.reads;
    None
  with Found (c, predicted, actual) -> Some (c, predicted, actual)

(* the commit operation [S <- live_out(t)], straight off the write
   journal's layout — PC flag, register mask, memory log — in journal
   order, with no cell boxed *)
let commit_into t arch =
  let w = t.writes in
  if Journal.has_pc w then Full.set_pc arch (Journal.pc_value w);
  for i = 0 to Reg.count - 1 do
    if Journal.has_reg w i then
      Full.set_reg arch (Reg.of_int i) (Journal.reg w i)
  done;
  Journal.iter_mem (Full.set_mem arch) w

let iter_writes f t = Journal.iter f t.writes
let iter_mem_writes f t = Journal.iter_mem f t.writes
let iter_reads f t = Journal.iter f t.reads

let pp fmt t =
  Format.fprintf fmt
    "@[<v>task %d: %#x -> %s, %d/%d instrs, %a@,live-ins recorded: %d, live-outs: %d@]"
    t.id t.start_pc
    (match t.end_pc with Some pc -> Printf.sprintf "%#x" pc | None -> "halt")
    t.executed t.budget pp_status t.status (Journal.cardinal t.reads)
    (Journal.cardinal t.writes)
