module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Layout = Mssp_isa.Layout
module Cfg = Mssp_cfg.Cfg

(* Pages mirror the geometry of [Full]'s paged memory: invalidation is
   page-granular, so one flag probe per store suffices on the hot path. *)
let page_bits = 12
let flag_pages = 4096

(* Longest straight-line region we pre-decode in one piece. A truncated
   block simply falls through to the next dispatch, so the cap bounds
   build cost without changing semantics. *)
let block_cap = 1024

(* Largest image span (in words) the O(1) direct-mapped block table will
   cover; programs beyond it still work through the hashtable path. *)
let span_cap = 1 lsl 22

type block = { b_start : int; b_instrs : Instr.t array }

type counters = {
  mutable c_instructions : int;
  mutable c_loads : int;
  mutable c_stores : int;
}

let fresh_counters () = { c_instructions = 0; c_loads = 0; c_stores = 0 }

type stop = Fuel | Stop_at | Halted | Fault of Exec.fault

type t = {
  decode : pc:int -> word:int -> Instr.t option;
      (* image-accelerated decode used for block building and fallback *)
  programs : Program.t list;
  cache : (int, block) Hashtbl.t;  (* entry pc -> block, off-span *)
  span_lo : int;
  span : block option array;  (* entry pc - span_lo -> block, in-span *)
  page_blocks : (int, block list ref) Hashtbl.t;  (* page -> blocks on it *)
  page_count : int array;  (* per-page block count, pages < flag_pages *)
  mutable far_pages : int;  (* #page_blocks keys >= flag_pages *)
  mutable warmed : bool;
  mutable blocks_built : int;
  mutable invalidations : int;
}

let create ?(images = []) () =
  let span_lo, span_len =
    match images with
    | [] -> (0, 0)
    | _ ->
      let lo =
        List.fold_left (fun acc p -> min acc p.Program.base) max_int images
      in
      let hi =
        List.fold_left
          (fun acc p -> max acc (p.Program.base + Program.length p))
          min_int images
      in
      let len = hi - lo in
      if len > 0 && len <= span_cap then (lo, len) else (0, 0)
  in
  {
    decode = Program.image_decoder (List.map Program.decode_all images);
    programs = images;
    cache = Hashtbl.create 64;
    span_lo;
    span = Array.make span_len None;
    page_blocks = Hashtbl.create 16;
    page_count = Array.make flag_pages 0;
    far_pages = 0;
    warmed = false;
    blocks_built = 0;
    invalidations = 0;
  }

let decoder eng = eng.decode
let blocks_built eng = eng.blocks_built
let invalidations eng = eng.invalidations

let lookup eng pc =
  let j = pc - eng.span_lo in
  if j >= 0 && j < Array.length eng.span then Array.unsafe_get eng.span j
  else Hashtbl.find_opt eng.cache pc

let add_page eng b p =
  let l =
    match Hashtbl.find_opt eng.page_blocks p with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add eng.page_blocks p l;
      if p >= flag_pages then eng.far_pages <- eng.far_pages + 1;
      l
  in
  l := b :: !l;
  if p < flag_pages then eng.page_count.(p) <- eng.page_count.(p) + 1

let drop_page eng b p =
  match Hashtbl.find_opt eng.page_blocks p with
  | None -> ()
  | Some l ->
    l := List.filter (fun b' -> b' != b) !l;
    if p < flag_pages then eng.page_count.(p) <- eng.page_count.(p) - 1;
    if !l = [] then begin
      Hashtbl.remove eng.page_blocks p;
      if p >= flag_pages then eng.far_pages <- eng.far_pages - 1
    end

(* Enumerate a block's pages address-by-address (cheap relative to the
   build itself, and safe for spans crossing the sign boundary). *)
let iter_pages f b =
  let last = ref min_int in
  let stop = b.b_start + Array.length b.b_instrs in
  let a = ref b.b_start in
  while !a < stop do
    let p = !a lsr page_bits in
    if p <> !last then begin
      f p;
      last := p
    end;
    incr a
  done

let register eng b =
  let j = b.b_start - eng.span_lo in
  if j >= 0 && j < Array.length eng.span then eng.span.(j) <- Some b
  else Hashtbl.replace eng.cache b.b_start b;
  iter_pages (fun p -> add_page eng b p) b

let unregister eng b =
  let j = b.b_start - eng.span_lo in
  if j >= 0 && j < Array.length eng.span then eng.span.(j) <- None
  else Hashtbl.remove eng.cache b.b_start;
  iter_pages (fun p -> drop_page eng b p) b

(* One probe per store: a page with no cached blocks costs an array read
   (or, past the flag window, an emptiness check). [true] when at least
   one block was dropped — the engine must then leave any block it is
   currently executing, since its pre-decoded instructions may be stale. *)
let maybe_invalidate eng a =
  let p = a lsr page_bits in
  let hit =
    if p < flag_pages then Array.unsafe_get eng.page_count p > 0
    else eng.far_pages > 0 && Hashtbl.mem eng.page_blocks p
  in
  if hit then begin
    (match Hashtbl.find_opt eng.page_blocks p with
    | None -> ()
    | Some l ->
      let bs = !l in
      List.iter (fun b -> unregister eng b) bs;
      eng.invalidations <- eng.invalidations + List.length bs);
    true
  end
  else false

let note_store eng a = ignore (maybe_invalidate eng a : bool)

(* Build the straight-line region entered at [pc] from the words
   currently in memory: conditional branches extend it (their
   fall-through continues the region), a transfer that cannot fall
   through — or an undecodable word, or the cap — ends it. Building
   performs no architectural accesses: the per-instruction fetch is
   charged at execution time, exactly as the single-step path does. *)
let build eng s pc =
  let buf = Array.make block_cap Instr.Nop in
  let n = ref 0 in
  let scanning = ref true in
  while !scanning && !n < block_cap do
    let a = pc + !n in
    let word = Full.get_mem s a in
    match eng.decode ~pc:a ~word with
    | None -> scanning := false
    | Some i ->
      buf.(!n) <- i;
      incr n;
      (match i with
      | Instr.Jmp _ | Instr.Jal _ | Instr.Jr _ | Instr.Jalr _ | Instr.Halt ->
        scanning := false
      | Instr.Alu _ | Instr.Alui _ | Instr.Li _ | Instr.Ld _ | Instr.St _
      | Instr.Br _ | Instr.Out _ | Instr.Fork _ | Instr.Nop ->
        ())
  done;
  if !n = 0 then None
  else begin
    let b = { b_start = pc; b_instrs = Array.sub buf 0 !n } in
    register eng b;
    eng.blocks_built <- eng.blocks_built + 1;
    Some b
  end

let lookup_or_build eng s pc =
  match lookup eng pc with Some _ as r -> r | None -> build eng s pc

let warm eng s =
  if not eng.warmed then begin
    eng.warmed <- true;
    List.iter
      (fun p ->
        if Program.length p > 0 then
          List.iter
            (fun pc -> ignore (lookup_or_build eng s pc : block option))
            (Cfg.superblock_starts (Cfg.build p)))
      eng.programs
  end

(* Execute one cached block. Counter and ordering parity with the
   single-step driver is the whole contract here:
   - every instruction visited charges one fetch load, the Halt
     fixed-point probe included;
   - [Ld] charges one more load; [St] one store; [Out] one load and two
     stores — mirroring [Exec]'s callback traffic exactly;
   - retirement bumps the instruction count, then [stop_at] is checked
     on the next PC (only once [min_steps] have run), and wins over fuel
     at the boundary;
   - fuel is checked before the *next* instruction, so the block is left
     (PC written back) when the budget is spent;
   - the architectural PC is written once, at block exit — intermediate
     values are unobservable because the block has no other exit. *)
type block_exit = Continue | Stopped of stop

let exec_block eng b s ctr ~fuel ~min_steps ~stop_at =
  let instrs = b.b_instrs in
  let len = Array.length instrs in
  let base = b.b_start in
  let i = ref 0 in
  let result = ref Continue in
  let running = ref true in
  let retire np forced =
    ctr.c_instructions <- ctr.c_instructions + 1;
    let stop_here =
      match stop_at with
      | Some at -> ctr.c_instructions >= min_steps && at np
      | None -> false
    in
    if stop_here then begin
      Full.set_pc s np;
      result := Stopped Stop_at;
      running := false
    end
    else if
      (not forced)
      && np = base + !i + 1
      && !i + 1 < len
      && ctr.c_instructions < fuel
    then incr i
    else begin
      Full.set_pc s np;
      running := false
    end
  in
  while !running do
    let pc = base + !i in
    let instr = Array.unsafe_get instrs !i in
    ctr.c_loads <- ctr.c_loads + 1 (* instruction fetch *);
    match instr with
    | Instr.Halt ->
      Full.set_pc s pc;
      result := Stopped Halted;
      running := false
    | Instr.Nop | Instr.Fork _ -> retire (pc + 1) false
    | Instr.Alu (op, rd, rs1, rs2) ->
      Full.set_reg s rd
        (Instr.eval_alu op (Full.get_reg s rs1) (Full.get_reg s rs2));
      retire (pc + 1) false
    | Instr.Alui (op, rd, rs1, imm) ->
      Full.set_reg s rd (Instr.eval_alu op (Full.get_reg s rs1) imm);
      retire (pc + 1) false
    | Instr.Li (rd, imm) ->
      Full.set_reg s rd imm;
      retire (pc + 1) false
    | Instr.Ld (rd, rs1, off) ->
      let a = Full.get_reg s rs1 + off in
      ctr.c_loads <- ctr.c_loads + 1;
      Full.set_reg s rd (Full.get_mem s a);
      retire (pc + 1) false
    | Instr.St (rs2, rs1, off) ->
      let a = Full.get_reg s rs1 + off in
      let v = Full.get_reg s rs2 in
      ctr.c_stores <- ctr.c_stores + 1;
      Full.set_mem s a v;
      retire (pc + 1) (maybe_invalidate eng a)
    | Instr.Br (c, rs1, rs2, off) ->
      let taken = Instr.eval_cmp c (Full.get_reg s rs1) (Full.get_reg s rs2) in
      retire (if taken then pc + off else pc + 1) false
    | Instr.Jmp off -> retire (pc + off) false
    | Instr.Jal (rd, off) ->
      Full.set_reg s rd (pc + 1);
      retire (pc + off) false
    | Instr.Jr rs -> retire (Full.get_reg s rs) false
    | Instr.Jalr (rd, rs) ->
      let target = Full.get_reg s rs in
      Full.set_reg s rd (pc + 1);
      retire target false
    | Instr.Out rs ->
      let v = Full.get_reg s rs in
      ctr.c_loads <- ctr.c_loads + 1;
      let count = Full.get_mem s Layout.out_count_addr in
      ctr.c_stores <- ctr.c_stores + 1;
      Full.set_mem s (Layout.out_base + count) v;
      let inv1 = maybe_invalidate eng (Layout.out_base + count) in
      ctr.c_stores <- ctr.c_stores + 1;
      Full.set_mem s Layout.out_count_addr (count + 1);
      let inv2 = maybe_invalidate eng Layout.out_count_addr in
      retire (pc + 1) (inv1 || inv2)
  done;
  !result

(* The [stop_at = None] variant — the whole-run driver's hot loop. With
   no stop predicate to consult, the loop carries a single induction
   variable: instructions [0, !i) of the block retired sequentially, and
   their fetch loads and retirement counts are settled in one addition
   at exit ([flush]) instead of two read-modify-writes per instruction.
   [lim] folds the fuel check into the loop bound: at most
   [fuel - c_instructions] instructions may start, so hitting [lim]
   before [len] just returns [Continue] and lets the dispatcher's fuel
   gate stop the run. Counter totals are bit-identical to [exec_block]
   and the single-step driver. *)
let exec_block_fast eng b s ctr ~fuel =
  let instrs = b.b_instrs in
  let len = Array.length instrs in
  let base = b.b_start in
  let budget = fuel - ctr.c_instructions in
  let lim = if budget < len then budget else len in
  let i = ref 0 in
  let result = ref Continue in
  let running = ref true in
  let flush () =
    ctr.c_loads <- ctr.c_loads + !i;
    ctr.c_instructions <- ctr.c_instructions + !i
  in
  (* the exiting instruction at [!i] is not covered by [flush]: charge
     its own fetch and retirement, write the PC, leave the loop *)
  let leave np =
    flush ();
    ctr.c_loads <- ctr.c_loads + 1;
    ctr.c_instructions <- ctr.c_instructions + 1;
    Full.set_pc s np;
    running := false
  in
  while !running && !i < lim do
    let pc = base + !i in
    match Array.unsafe_get instrs !i with
    | Instr.Nop | Instr.Fork _ -> incr i
    | Instr.Alu (op, rd, rs1, rs2) ->
      Full.set_reg s rd
        (Instr.eval_alu op (Full.get_reg s rs1) (Full.get_reg s rs2));
      incr i
    | Instr.Alui (op, rd, rs1, imm) ->
      Full.set_reg s rd (Instr.eval_alu op (Full.get_reg s rs1) imm);
      incr i
    | Instr.Li (rd, imm) ->
      Full.set_reg s rd imm;
      incr i
    | Instr.Ld (rd, rs1, off) ->
      let a = Full.get_reg s rs1 + off in
      ctr.c_loads <- ctr.c_loads + 1;
      Full.set_reg s rd (Full.get_mem s a);
      incr i
    | Instr.St (rs2, rs1, off) ->
      let a = Full.get_reg s rs1 + off in
      let v = Full.get_reg s rs2 in
      ctr.c_stores <- ctr.c_stores + 1;
      Full.set_mem s a v;
      if maybe_invalidate eng a then leave (pc + 1) else incr i
    | Instr.Br (c, rs1, rs2, off) ->
      if Instr.eval_cmp c (Full.get_reg s rs1) (Full.get_reg s rs2) then
        leave (pc + off)
      else incr i
    | Instr.Jmp off -> leave (pc + off)
    | Instr.Jal (rd, off) ->
      Full.set_reg s rd (pc + 1);
      leave (pc + off)
    | Instr.Jr rs -> leave (Full.get_reg s rs)
    | Instr.Jalr (rd, rs) ->
      let target = Full.get_reg s rs in
      Full.set_reg s rd (pc + 1);
      leave target
    | Instr.Out rs ->
      let v = Full.get_reg s rs in
      ctr.c_loads <- ctr.c_loads + 1;
      let count = Full.get_mem s Layout.out_count_addr in
      ctr.c_stores <- ctr.c_stores + 1;
      Full.set_mem s (Layout.out_base + count) v;
      let inv1 = maybe_invalidate eng (Layout.out_base + count) in
      ctr.c_stores <- ctr.c_stores + 1;
      Full.set_mem s Layout.out_count_addr (count + 1);
      let inv2 = maybe_invalidate eng Layout.out_count_addr in
      if inv1 || inv2 then leave (pc + 1) else incr i
    | Instr.Halt ->
      (* visited (one fetch charged) but never retired: a fixed point *)
      flush ();
      ctr.c_loads <- ctr.c_loads + 1;
      Full.set_pc s pc;
      result := Stopped Halted;
      running := false
  done;
  if !running then begin
    (* fell off the block (or out of budget): [0, !i) all sequential *)
    flush ();
    Full.set_pc s (base + !i)
  end;
  !result

(* --- speculative block caches (the slave rung) ----------------------

   The task executor cannot use the engine above: it fetches through a
   journal stack (write buffer -> live-in -> architected view), not
   through a [Full.t], and its first-reads must be staged for
   verification. What it shares with the master's engine is everything
   below the fetch: the straight-line-region shape, the page-granular
   store invalidation, and the leave-the-block-after-a-store SMC rule.
   [Spec] packages exactly that — a block cache parameterized over the
   owner's fetch resolution — so slaves climb onto the same ladder
   without duplicating its geometry. A cache outlives any one task run
   (the machine keeps one per slave, so consecutive tasks re-dispatch
   warm blocks instead of rebuilding them); what is per-run is the
   staging state: blocks remember each fetched word and whether it is a
   first-read candidate ([s_live]), plus a recorded prefix ([s_covered])
   stamped with the run generation ([s_cover_gen]) — a new run sees the
   watermark as empty without touching every cached block. *)
module Spec = struct
  type sblock = {
    s_start : int;
    s_instrs : Instr.t array;
    s_words : int array;
    s_live : bool array;
    mutable s_covered : int;
    mutable s_cover_gen : int;
  }

  type t = {
    sp_decode : pc:int -> word:int -> Instr.t option;
    sp_cache : (int, sblock) Hashtbl.t;
    sp_pages : (int, sblock list ref) Hashtbl.t;
    mutable sp_lo : int;  (* page range holding cached blocks; *)
    mutable sp_hi : int;  (* lo > hi when the cache is empty *)
    mutable sp_gen : int;  (* current run generation, see [new_run] *)
    mutable sp_built : int;
    mutable sp_dropped : int;
  }

  let create ~decode () =
    {
      sp_decode = decode;
      sp_cache = Hashtbl.create 16;
      sp_pages = Hashtbl.create 8;
      sp_lo = max_int;
      sp_hi = min_int;
      sp_gen = 0;
      sp_built = 0;
      sp_dropped = 0;
    }

  let new_run t =
    t.sp_gen <- t.sp_gen + 1;
    t.sp_gen

  let clear t =
    Hashtbl.reset t.sp_cache;
    Hashtbl.reset t.sp_pages;
    t.sp_lo <- max_int;
    t.sp_hi <- min_int

  let built t = t.sp_built
  let dropped t = t.sp_dropped
  let lookup t pc = Hashtbl.find_opt t.sp_cache pc

  let iter_spec_pages f b =
    let last = ref min_int in
    let stop = b.s_start + Array.length b.s_instrs in
    let a = ref b.s_start in
    while !a < stop do
      let p = !a lsr page_bits in
      if p <> !last then begin
        f p;
        last := p
      end;
      incr a
    done

  let register t b =
    Hashtbl.replace t.sp_cache b.s_start b;
    t.sp_built <- t.sp_built + 1;
    iter_spec_pages
      (fun p ->
        (match Hashtbl.find_opt t.sp_pages p with
        | Some l -> l := b :: !l
        | None -> Hashtbl.add t.sp_pages p (ref [ b ]));
        if p < t.sp_lo then t.sp_lo <- p;
        if p > t.sp_hi then t.sp_hi <- p)
      b

  (* One range check per store on the miss path (the cache covers a few
     code pages; far data stores never get past it). A page hit is not
     yet a drop: [Dsl.alloc] places kernel data right after the code,
     so task-body stores routinely land on a page that also holds
     cached blocks — and a task body that re-dispatches its loop block
     on every trip would rebuild it on every trip if any same-page
     store dropped it. A block's captured words only go stale when the
     store lands {e inside its span}, so only spanning blocks are
     dropped (exact staleness, still conservative: the fetched word may
     be bound in the write buffer either way). [true] when anything was
     dropped — the executor must then leave the block it is inside,
     exactly like the master engine. *)
  let note_store t a =
    let p = a lsr page_bits in
    if p < t.sp_lo || p > t.sp_hi then false
    else
      match Hashtbl.find_opt t.sp_pages p with
      | None -> false
      | Some l ->
        let stale =
          List.filter
            (fun b ->
              a >= b.s_start && a < b.s_start + Array.length b.s_instrs)
            !l
        in
        List.iter
          (fun b ->
            Hashtbl.remove t.sp_cache b.s_start;
            iter_spec_pages
              (fun q ->
                match Hashtbl.find_opt t.sp_pages q with
                | None -> ()
                | Some l' ->
                  l' := List.filter (fun b' -> b' != b) !l';
                  if !l' = [] then Hashtbl.remove t.sp_pages q)
              b)
          stale;
        t.sp_dropped <- t.sp_dropped + List.length stale;
        stale <> []

  (* Build the straight-line region entered at [pc] through the owner's
     [fetch]: [Some (word, live)] resolves an address ([live] marks a
     resolution outside the write buffer — a first-read candidate),
     [None] refuses it (the I/O region, or an unbound cell in isolated
     mode) and ends the region, as do undecodable words, transfers that
     cannot fall through, and the cap. Building performs no journal
     staging and no access-hook traffic: fetches are charged and staged
     at execution time, exactly as the single-step path does. *)
  let build t ~fetch pc =
    let ibuf = Array.make block_cap Instr.Nop in
    let wbuf = Array.make block_cap 0 in
    let lbuf = Array.make block_cap false in
    let n = ref 0 in
    let scanning = ref true in
    while !scanning && !n < block_cap do
      let a = pc + !n in
      match fetch a with
      | None -> scanning := false
      | Some (word, live) -> (
        match t.sp_decode ~pc:a ~word with
        | None -> scanning := false
        | Some i ->
          ibuf.(!n) <- i;
          wbuf.(!n) <- word;
          lbuf.(!n) <- live;
          incr n;
          (match i with
          | Instr.Jmp _ | Instr.Jal _ | Instr.Jr _ | Instr.Jalr _
          | Instr.Halt ->
            scanning := false
          | Instr.Alu _ | Instr.Alui _ | Instr.Li _ | Instr.Ld _
          | Instr.St _ | Instr.Br _ | Instr.Out _ | Instr.Fork _
          | Instr.Nop ->
            ()))
    done;
    if !n = 0 then None
    else begin
      let b =
        {
          s_start = pc;
          s_instrs = Array.sub ibuf 0 !n;
          s_words = Array.sub wbuf 0 !n;
          s_live = Array.sub lbuf 0 !n;
          s_covered = 0;
          s_cover_gen = t.sp_gen;
        }
      in
      register t b;
      Some b
    end

  let lookup_or_build t ~fetch pc =
    match lookup t pc with Some _ as r -> r | None -> build t ~fetch pc
end

let run eng s ctr ~fuel ~min_steps ~stop_at =
  let stop = ref Fuel in
  let running = ref true in
  (* Fallback rung: a single reference [Exec.step] through
     counter-charging callbacks, used where no block exists (the entry
     word does not decode — which is exactly the fault probe). Stores
     here run the same invalidation check as in-block stores. *)
  let fb_read c =
    (match c with
    | Cell.Mem _ -> ctr.c_loads <- ctr.c_loads + 1
    | Cell.Pc | Cell.Reg _ -> ());
    Some (Full.get s c)
  in
  let fb_write c v =
    match c with
    | Cell.Mem a ->
      ctr.c_stores <- ctr.c_stores + 1;
      Full.set_mem s a v;
      note_store eng a
    | Cell.Pc | Cell.Reg _ -> Full.set s c v
  in
  while !running do
    if ctr.c_instructions >= fuel then begin
      stop := Fuel;
      running := false
    end
    else begin
      let pc = Full.pc s in
      match lookup_or_build eng s pc with
      | Some b -> (
        let exit =
          match stop_at with
          | None -> exec_block_fast eng b s ctr ~fuel
          | Some _ -> exec_block eng b s ctr ~fuel ~min_steps ~stop_at
        in
        match exit with
        | Continue -> ()
        | Stopped st ->
          stop := st;
          running := false)
      | None -> (
        match
          Exec.step_with ~decode:eng.decode ~read:fb_read ~write:fb_write
        with
        | Exec.Stepped -> (
          ctr.c_instructions <- ctr.c_instructions + 1;
          match stop_at with
          | Some at when ctr.c_instructions >= min_steps && at (Full.pc s) ->
            stop := Stop_at;
            running := false
          | _ -> ())
        | Exec.Halted ->
          stop := Halted;
          running := false
        | Exec.Fault f ->
          stop := Fault f;
          running := false
        | Exec.Missing _ -> assert false (* full states are total *))
    end
  done;
  !stop
