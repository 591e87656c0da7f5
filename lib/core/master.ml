module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Live_in = Mssp_state.Live_in
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Program = Mssp_isa.Program
module Distill = Mssp_distill.Distill
module Hierarchy = Mssp_cache.Cache.Hierarchy
module Journal = Mssp_task.Journal

type t = {
  mutable state : Full.t;
  mutable dirty : Fragment.t;
      (* memory written since the last seed, as of the last checkpoint —
         cumulative, so a checkpoint's live-in prediction covers
         everything the slave may need from any older in-flight task (the
         hardware's speculative version forwarding) *)
  stores : Journal.t;
      (* the store buffer: the last value stored to each address since
         the last checkpoint, in first-store order; nothing allocates
         once its log has grown to the largest inter-checkpoint
         footprint *)
  track_stores : bool;
      (* whether checkpoints carry [dirty]; in control-only and isolated
         modes nothing is buffered at all *)
  mutable since_cp : int;
      (* instructions since the last checkpoint — the task-size pacing
         counter; markers are skipped while it is below [task_size] *)
  passes : (int, int) Hashtbl.t;
      (* per-boundary-site marker passes since the last checkpoint; tells
         the slave which arrival at the end PC is the boundary *)
  mutable fork_entry : int;
  mutable retired : int;
  config : Mssp_config.t;
  cache : Hierarchy.t;
  decode : pc:int -> word:int -> Instr.t option;
  (* the PC map, flat over the original image: [map.(pc - map_base)] is
     the distilled PC for [pc], or [unmapped]; [map_spill] holds the
     whole table when some key lies outside that span (hand-built
     packages) *)
  map_base : int;
  map : int array;
  map_spill : (int, int) Hashtbl.t option;
}

let unmapped = min_int

let flatten_pc_map (d : Distill.t) =
  let base = d.original.Program.base in
  let map = Array.make (Program.length d.original) unmapped in
  let spill = ref false in
  Hashtbl.iter
    (fun pc dpc ->
      let i = pc - base in
      if i >= 0 && i < Array.length map then map.(i) <- dpc else spill := true)
    d.pc_map;
  (base, map, if !spill then Some d.pc_map else None)

let reseed m arch ~pc =
  m.state <- Full.copy arch;
  m.dirty <- Fragment.empty;
  Journal.clear m.stores;
  m.since_cp <- m.config.Mssp_config.task_size (* fork at the first marker *);
  Hashtbl.reset m.passes;
  Full.set_pc m.state pc

let create ~config ~cache ~decode (d : Distill.t) arch =
  let map_base, map, map_spill = flatten_pc_map d in
  let m =
    {
      state = arch;
      dirty = Fragment.empty;
      stores = Journal.create ~mem_size:64 ();
      track_stores =
        not (config.Mssp_config.control_only_master || config.isolated_slaves);
      since_cp = 0;
      passes = Hashtbl.create 16;
      fork_entry = 0;
      retired = 0;
      config;
      cache;
      decode;
      map_base;
      map;
      map_spill;
    }
  in
  reseed m arch ~pc:d.distilled.Program.entry;
  m

let state m = m.state
let retired m = m.retired
let dirty m = m.dirty
let fork_entry m = m.fork_entry
let buffered m = Journal.mem_count m.stores
let dead = -2
let fork = -1

(* jumps that landed in original code (indirect returns) go back into
   distilled code *)
let redirect m pc =
  let i = pc - m.map_base in
  let dpc =
    if i >= 0 && i < Array.length m.map then Array.unsafe_get m.map i
    else
      match m.map_spill with
      | None -> unmapped
      | Some tbl -> (
        match Hashtbl.find_opt tbl pc with Some dpc -> dpc | None -> unmapped)
  in
  if dpc = unmapped then pc
  else begin
    Full.set_pc m.state dpc;
    dpc
  end

let[@inline] store m a v =
  Full.set_mem m.state a v;
  if m.track_stores then Journal.set_mem m.stores a v

let step m =
  let s = m.state in
  let pc = redirect m (Full.pc s) in
  match m.decode ~pc ~word:(Full.get_mem s pc) with
  | None | Some Instr.Halt -> dead
  | Some (Instr.Fork e) ->
    m.fork_entry <- e;
    fork
  | Some instr ->
    m.retired <- m.retired + 1;
    let fetched = m.config.timing.master_base + Hierarchy.access m.cache pc in
    (match instr with
    | Instr.Halt | Instr.Fork _ -> assert false
    | Instr.Nop ->
      Full.set_pc s (pc + 1);
      fetched
    | Instr.Alu (op, rd, rs1, rs2) ->
      Full.set_reg s rd (Instr.eval_alu op (Full.get_reg s rs1) (Full.get_reg s rs2));
      Full.set_pc s (pc + 1);
      fetched
    | Instr.Alui (op, rd, rs1, imm) ->
      Full.set_reg s rd (Instr.eval_alu op (Full.get_reg s rs1) imm);
      Full.set_pc s (pc + 1);
      fetched
    | Instr.Li (rd, imm) ->
      Full.set_reg s rd imm;
      Full.set_pc s (pc + 1);
      fetched
    | Instr.Ld (rd, rs1, off) ->
      let a = Full.get_reg s rs1 + off in
      let cost = fetched + Hierarchy.access m.cache a in
      Full.set_reg s rd (Full.get_mem s a);
      Full.set_pc s (pc + 1);
      cost
    | Instr.St (rs2, rs1, off) ->
      let a = Full.get_reg s rs1 + off in
      let cost = fetched + Hierarchy.access m.cache a in
      store m a (Full.get_reg s rs2);
      Full.set_pc s (pc + 1);
      cost
    | Instr.Br (c, rs1, rs2, off) ->
      let taken = Instr.eval_cmp c (Full.get_reg s rs1) (Full.get_reg s rs2) in
      Full.set_pc s (if taken then pc + off else pc + 1);
      fetched
    | Instr.Jmp off ->
      Full.set_pc s (pc + off);
      fetched
    | Instr.Jal (rd, off) ->
      Full.set_reg s rd (pc + 1);
      Full.set_pc s (pc + off);
      fetched
    | Instr.Jr rs ->
      Full.set_pc s (Full.get_reg s rs);
      fetched
    | Instr.Jalr (rd, rs) ->
      let target = Full.get_reg s rs in
      Full.set_reg s rd (pc + 1);
      Full.set_pc s target;
      fetched
    | Instr.Out rs ->
      (* [Exec]'s order: count read, slot write, count write *)
      let v = Full.get_reg s rs in
      let counted = fetched + Hierarchy.access m.cache Layout.out_count_addr in
      let count = Full.get_mem s Layout.out_count_addr in
      let slot = Layout.out_base + count in
      let slotted = counted + Hierarchy.access m.cache slot in
      store m slot v;
      let cost = slotted + Hierarchy.access m.cache Layout.out_count_addr in
      store m Layout.out_count_addr (count + 1);
      Full.set_pc s (pc + 1);
      cost)

(* O(registers): the store buffer folds into the dirty set (O(stores
   since the last checkpoint)), and the checkpoint is the PC, one copy of
   the register file, and that dirty set by reference *)
let checkpoint m e =
  let cfg = m.config in
  if cfg.Mssp_config.control_only_master then Live_in.pc_only e
  else if cfg.isolated_slaves then
    Live_in.of_fragment (Fragment.add Cell.Pc e (Full.snapshot m.state))
  else begin
    let b = m.stores in
    for k = 0 to Journal.mem_count b - 1 do
      m.dirty <-
        Fragment.add (Cell.Mem (Journal.mem_addr b k)) (Journal.mem_value b k) m.dirty
    done;
    Journal.clear m.stores;
    Live_in.of_state ~pc:e m.state m.dirty
  end

let note_pass m e =
  let n = match Hashtbl.find_opt m.passes e with Some n -> n + 1 | None -> 1 in
  Hashtbl.replace m.passes e n;
  n

type stop =
  | Forked of { entry : int; occurrence : int; live_in : Live_in.t; cost : int }
  | Stopped of int

let run m =
  let task_size = m.config.Mssp_config.task_size in
  let rec go budget cost =
    if budget = 0 then Stopped cost (* run-away: no checkpoint for a whole chunk *)
    else
      let c = step m in
      if c >= 0 then begin
        m.since_cp <- m.since_cp + 1;
        go (budget - 1) (cost + c)
      end
      else if c = dead then Stopped cost
      else begin
        (* markers are free for the master (a real implementation keeps
           fork sites in a table, not the pipeline) *)
        let entry = m.fork_entry in
        let occurrence = note_pass m entry in
        Full.set_pc m.state (Full.pc m.state + 1);
        if m.since_cp < task_size then go budget cost
        else begin
          Hashtbl.reset m.passes;
          m.since_cp <- 0;
          Forked { entry; occurrence; live_in = checkpoint m entry; cost }
        end
      end
  in
  go m.config.master_chunk 0
