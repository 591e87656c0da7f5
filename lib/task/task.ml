module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
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
  live_in : Fragment.t;
  li : Journal.t;
  live_in_lo : int;
  live_in_hi : int;
  reads : Journal.t;
  writes : Journal.t;
  mutable executed : int;
  mutable status : status;
  decode : pc:int -> word:int -> Mssp_isa.Instr.t option;
}

let make ~id ~start_pc ~end_pc ~end_occurrence ~budget ~live_in =
  let live_in =
    if Fragment.mem Cell.Pc live_in then live_in
    else Fragment.add Cell.Pc start_pc live_in
  in
  (* The checkpoint's memory part is the master's cumulative dirty set,
     shared by reference with every other checkpoint since the master's
     last seed: it is probed in place, never copied. Only the PC and the
     registers — at most 32 cells, the smallest keys — are flattened
     into [li] for the per-instruction fast path. *)
  let li = Journal.create ~mem_size:1 () in
  Fragment.iter_pc_regs (Journal.set li) live_in;
  let live_in_lo, live_in_hi =
    match Fragment.mem_bounds live_in with
    | Some bounds -> bounds
    | None -> (max_int, min_int)
  in
  {
    id;
    start_pc;
    end_pc;
    end_occurrence = max 1 end_occurrence;
    end_seen = 0;
    budget;
    live_in;
    li;
    live_in_lo;
    live_in_hi;
    reads = Journal.create ();
    writes = Journal.create ();
    executed = 0;
    status = Running;
    decode = Exec.default_decode;
  }

(* memory live-in probe: [c] is the caller's [Cell.Mem a], and the
   fragment is consulted only inside its address bounds *)
let find_live_in_mem t c a =
  if a < t.live_in_lo || a > t.live_in_hi then None
  else Fragment.find_opt c t.live_in

let find_live_in t c =
  match c with
  | Cell.Pc | Cell.Reg _ -> Journal.find t.li c
  | Cell.Mem a -> find_live_in_mem t c a

let with_decode decode t = { t with decode }

type view = Isolated | Fallback of (Cell.t -> int)

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
      else if Journal.has_reg t.li i then begin
        let v = Journal.reg t.li i in
        if not (Journal.has_reg t.reads i) then Journal.set_reg t.reads i v;
        Some v
      end
      else (
        match view with
        | Fallback arch ->
          let v = arch c in
          if not (Journal.has_reg t.reads i) then Journal.set_reg t.reads i v;
          Some v
        | Isolated -> None)
    | Cell.Pc ->
      if Journal.has_pc t.writes then Some (Journal.pc_value t.writes)
      else if Journal.has_pc t.li then begin
        let v = Journal.pc_value t.li in
        if not (Journal.has_pc t.reads) then Journal.set_pc t.reads v;
        Some v
      end
      else (
        match view with
        | Fallback arch ->
          let v = arch c in
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
          match find_live_in_mem t c a with
          | Some v -> v
          | None -> (
            match view with
            | Fallback arch -> arch c
            | Isolated ->
              (* memory is total: absent cells read as 0 and that
                 reading is itself a live-in to verify *)
              0)
        in
        if Journal.find_mem t.reads a = None then
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
   of pre-decoded straight-line regions instead: the PC lives in a loop
   index and is flushed to the write journal once at block exit, bound
   cells resolve straight off the journal fast arrays, and a block's
   unbound fetches are staged as first-reads into the reads journal's
   insertion-order log — the [s_covered] watermark skips even the
   staging probes on re-dispatch. The observable contract is
   bit-identity with the interpreter: same status, same [executed], same
   write buffer, same [on_access] sequence, and a first-read stream
   identical in content and order (the differential suite and the SJRNLG
   bench guard enforce this, like PR 6's SBLKG does for the master).

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
   a [Ld]/[St] whose operand address turns out speculative-I/O — the
   block is left *before* the instruction, so the slow path replays it
   with the interpreter's exact latch-and-fail behaviour. A store that
   invalidates cached blocks ([Spec.note_store]) forces block exit after
   the store, the PR 6 SMC rule. Isolated-view tasks stay entirely on
   the interpreter: their reads can be [Missing], which only the
   single-step path models. *)

let exec_spec_block t ~on_access arch eng ~gen (b : Spec.sblock) =
  (* the cache outlives task runs; a block first dispatched by this run
     carries a stale watermark from its previous owner *)
  if b.Spec.s_cover_gen <> gen then begin
    b.Spec.s_cover_gen <- gen;
    b.Spec.s_covered <- 0
  end;
  let instrs = b.Spec.s_instrs in
  let words = b.Spec.s_words in
  let lives = b.Spec.s_live in
  let len = Array.length instrs in
  let base = b.Spec.s_start in
  let remaining = t.budget - t.executed in
  let lim = if remaining < len then remaining else len in
  let i = ref 0 in
  let retired = ref 0 in
  let running = ref true in
  (* flush-once control state: retirements and the PC land in the task
     at block exit, not per instruction *)
  let flush () = t.executed <- t.executed + !retired in
  let sync_pc pc = if !retired > 0 then Journal.set_pc t.writes pc in
  let leave np =
    flush ();
    sync_pc np;
    running := false
  in
  (* fetch: charged on every execution; staged as a first-read only past
     the covered watermark, and only when the word resolved outside the
     write buffer at build time (stores since then would have dropped
     the block, so the provenance cannot be stale) *)
  let fetch_at i pc =
    on_access pc;
    if i >= b.Spec.s_covered then begin
      if
        Array.unsafe_get lives i
        && Journal.find_mem t.reads pc = None
      then Journal.record_mem t.reads pc (Array.unsafe_get words i);
      b.Spec.s_covered <- i + 1
    end
  in
  let read_reg r =
    if Reg.equal r Reg.zero then 0
    else begin
      let k = Reg.to_int r in
      if Journal.has_reg t.writes k then Journal.reg t.writes k
      else if Journal.has_reg t.li k then begin
        let v = Journal.reg t.li k in
        if not (Journal.has_reg t.reads k) then Journal.set_reg t.reads k v;
        v
      end
      else begin
        let v = arch (Cell.Reg r) in
        if not (Journal.has_reg t.reads k) then Journal.set_reg t.reads k v;
        v
      end
    end
  in
  let write_reg r v =
    if not (Reg.equal r Reg.zero) then Journal.set_reg t.writes (Reg.to_int r) v
  in
  (* data read, address already known non-I/O *)
  let read_mem a =
    on_access a;
    match Journal.find_mem t.writes a with
    | Some v -> v
    | None ->
      let c = Cell.mem a in
      let v =
        match find_live_in_mem t c a with Some v -> v | None -> arch c
      in
      if Journal.find_mem t.reads a = None then Journal.record_mem t.reads a v;
      v
  in
  (* data write, address already known non-I/O; [true] forces block exit
     (the store dropped cached blocks — this one may be stale) *)
  let write_mem a v =
    on_access a;
    Journal.set_mem t.writes a v;
    Spec.note_store eng a
  in
  (* retirement: the boundary check runs on every retired instruction's
     successor PC, exactly like the interpreter's post-step check *)
  let retire np forced =
    incr retired;
    let complete =
      match t.end_pc with
      | Some e when np = e ->
        t.end_seen <- t.end_seen + 1;
        t.end_seen >= t.end_occurrence
      | _ -> false
    in
    if complete then begin
      t.status <- Complete Reached_boundary;
      leave np
    end
    else if (not forced) && np = base + !i + 1 && !i + 1 < lim then incr i
    else leave np
  in
  (* a speculative I/O touch: complete the instruction into the write
     buffer with the interpreter's exact latch semantics, then fail the
     task without retiring it ([executed] unchanged) — bit-for-bit the
     single-step [Io_speculative] path *)
  let io_fail cell pc =
    flush ();
    Journal.set_pc t.writes (pc + 1);
    t.status <- Failed (Io_speculative cell);
    running := false
  in
  while !running && !i < lim do
    let pc = base + !i in
    match Array.unsafe_get instrs !i with
    | Instr.Nop | Instr.Fork _ ->
      fetch_at !i pc;
      retire (pc + 1) false
    | Instr.Alu (op, rd, rs1, rs2) ->
      fetch_at !i pc;
      write_reg rd (Instr.eval_alu op (read_reg rs1) (read_reg rs2));
      retire (pc + 1) false
    | Instr.Alui (op, rd, rs1, imm) ->
      fetch_at !i pc;
      write_reg rd (Instr.eval_alu op (read_reg rs1) imm);
      retire (pc + 1) false
    | Instr.Li (rd, imm) ->
      fetch_at !i pc;
      write_reg rd imm;
      retire (pc + 1) false
    | Instr.Ld (rd, rs1, off) ->
      let a = read_reg rs1 + off in
      fetch_at !i pc;
      let v = read_mem a in
      write_reg rd v;
      if Layout.is_io a then io_fail (Cell.mem a) pc
      else retire (pc + 1) false
    | Instr.St (rs2, rs1, off) ->
      let a = read_reg rs1 + off in
      fetch_at !i pc;
      let v = read_reg rs2 in
      if Layout.is_io a then begin
        on_access a;
        Journal.set_mem t.writes a v;
        io_fail (Cell.mem a) pc
      end
      else retire (pc + 1) (write_mem a v)
    | Instr.Br (c, rs1, rs2, off) ->
      fetch_at !i pc;
      let taken = Instr.eval_cmp c (read_reg rs1) (read_reg rs2) in
      retire (if taken then pc + off else pc + 1) false
    | Instr.Jmp off ->
      fetch_at !i pc;
      retire (pc + off) false
    | Instr.Jal (rd, off) ->
      fetch_at !i pc;
      write_reg rd (pc + 1);
      retire (pc + off) false
    | Instr.Jr rs ->
      fetch_at !i pc;
      retire (read_reg rs) false
    | Instr.Jalr (rd, rs) ->
      fetch_at !i pc;
      let target = read_reg rs in
      write_reg rd (pc + 1);
      retire target false
    | Instr.Out rs ->
      (* mirrors [Exec]: count read, data write, count write — with the
         interpreter's latch semantics if the data slot lands in I/O
         (the instruction completes into the write buffer, then the
         task fails without retiring it) *)
      fetch_at !i pc;
      let v = read_reg rs in
      let count = read_mem Layout.out_count_addr in
      let slot = Layout.out_base + count in
      if Layout.is_io slot then begin
        on_access slot;
        Journal.set_mem t.writes slot v;
        on_access Layout.out_count_addr;
        Journal.set_mem t.writes Layout.out_count_addr (count + 1);
        io_fail (Cell.mem slot) pc
      end
      else begin
        let inv1 = write_mem slot v in
        let inv2 = write_mem Layout.out_count_addr (count + 1) in
        retire (pc + 1) (inv1 || inv2)
      end
    | Instr.Halt ->
      (* fetched but never retired, like the interpreter's fixed point;
         the write-buffer PC already names this address unless nothing
         retired yet this dispatch *)
      fetch_at !i pc;
      flush ();
      if t.executed > 0 then Journal.set_pc t.writes pc;
      t.status <- Complete Program_halted;
      running := false
  done;
  if !running then begin
    (* out of budget mid-block: [0, !i) retired sequentially *)
    flush ();
    sync_pc (base + !i)
  end

let run_block_journal ~on_access ?engine t arch ctx =
  let eng =
    match engine with
    | Some e -> e
    | None -> Spec.create ~decode:t.decode ()
  in
  let gen = Spec.new_run eng in
  (* build-time fetch resolution: architected words only (no staging,
     access traffic or the I/O latch — all charged at execution time).
     Words bound in the write buffer or the live-in must not be baked
     into a shareable block; the [shadowed] probe keeps any span they
     could cover off this path. *)
  let peek a =
    if Layout.is_io a then None else Some (arch (Cell.mem a), true)
  in
  let shadowed b =
    let lo = b.Spec.s_start in
    let hi = lo + Array.length b.Spec.s_instrs - 1 in
    not
      (Journal.mem_avoids t.writes ~lo ~hi
      && (t.live_in_hi < lo || t.live_in_lo > hi))
  in
  let rec go () =
    match t.status with
    | (Complete _ | Failed _) as s -> s
    | Running ->
      if t.executed >= t.budget then begin
        t.status <- Failed Budget_exhausted;
        t.status
      end
      else begin
        (* the dispatch PC resolves (and stages) through the ordinary
           read path — one probe per block, not per instruction *)
        match ctx.c_read Cell.Pc with
        | None -> single_step ()
        | Some pc -> (
          match Spec.lookup_or_build eng ~fetch:peek pc with
          | Some b when not (shadowed b) ->
            exec_spec_block t ~on_access arch eng ~gen b;
            go ()
          | Some _ | None -> single_step ())
      end
  and single_step () =
    match step_ctx t ctx with Running -> go () | s -> s
  in
  go ()

let run_reference ?(on_access = no_access) t view =
  let ctx = make_ctx ~on_access t view in
  let rec go () = match step_ctx t ctx with Running -> go () | s -> s in
  go ()

let run ?(on_access = no_access) ?engine t view =
  match view with
  | Fallback arch ->
    run_block_journal ~on_access ?engine t arch (make_ctx ~on_access t view)
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

(* the commit operation [S <- live_out(t)], straight from the journal *)
let commit_into t arch = Journal.iter (fun c v -> Full.set arch c v) t.writes

let iter_writes f t = Journal.iter f t.writes
let iter_reads f t = Journal.iter f t.reads

let pp fmt t =
  Format.fprintf fmt
    "@[<v>task %d: %#x -> %s, %d/%d instrs, %a@,live-ins recorded: %d, live-outs: %d@]"
    t.id t.start_pc
    (match t.end_pc with Some pc -> Printf.sprintf "%#x" pc | None -> "halt")
    t.executed t.budget pp_status t.status (Journal.cardinal t.reads)
    (Journal.cardinal t.writes)
