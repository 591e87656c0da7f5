module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Reg = Mssp_isa.Reg

(* Memory bindings live in a hashtable for the O(1) probe, plus an
   insertion-order log of addresses. The log is what makes the journal's
   iteration order a *contract* rather than an accident of hashing: a
   reads journal replays its first-reads in serial first-read order at
   verification time, whatever mixture of per-instruction recording and
   block-batched staging produced them, and whatever the table's
   capacity. That decouples the observable order from [mem_size]: any
   sizing is bit-identical. *)
type t = {
  mutable pc : int;
  mutable pc_set : bool;
  regs : int array;
  mutable reg_mask : int; (* bit [Reg.to_int r] set iff the register is bound *)
  mem : (int, int) Hashtbl.t;
  mutable mem_order : int array; (* addresses, in first-binding order *)
  mutable mem_first : int array; (* values at first binding, parallel *)
  mutable rebound : bool; (* a binding was replaced: [mem_first] may be stale *)
  mutable mem_n : int;
  mutable mem_lo : int; (* bounds of every address ever bound; *)
  mutable mem_hi : int; (* lo > hi when no memory is bound *)
}

(* the log starts at a quarter of the table's size and doubles on demand:
   most tasks bind a few dozen cells, and a journal is allocated per
   task, so an oversized log is promoted garbage on every spawn *)
let create ?(mem_size = 64) () =
  let log_size = max 8 (mem_size / 4) in
  {
    pc = 0;
    pc_set = false;
    regs = Array.make Reg.count 0;
    reg_mask = 0;
    mem = Hashtbl.create mem_size;
    mem_order = Array.make log_size 0;
    mem_first = Array.make log_size 0;
    rebound = false;
    mem_n = 0;
    mem_lo = max_int;
    mem_hi = min_int;
  }

let has_pc j = j.pc_set
let pc j = if j.pc_set then Some j.pc else None
let pc_value j = j.pc

let set_pc j v =
  j.pc <- v;
  j.pc_set <- true

let has_reg j i = j.reg_mask land (1 lsl i) <> 0
let reg j i = Array.unsafe_get j.regs i

let set_reg j i v =
  Array.unsafe_set j.regs i v;
  j.reg_mask <- j.reg_mask lor (1 lsl i)

let find_mem j a = Hashtbl.find_opt j.mem a

let grow buf n =
  let bigger = Array.make (2 * n) 0 in
  Array.blit buf 0 bigger 0 n;
  bigger

let log_mem j a v =
  if a < j.mem_lo then j.mem_lo <- a;
  if a > j.mem_hi then j.mem_hi <- a;
  let n = j.mem_n in
  if n = Array.length j.mem_order then begin
    j.mem_order <- grow j.mem_order n;
    j.mem_first <- grow j.mem_first n
  end;
  Array.unsafe_set j.mem_order n a;
  Array.unsafe_set j.mem_first n v;
  j.mem_n <- n + 1

let record_mem j a v =
  log_mem j a v;
  Hashtbl.add j.mem a v

let set_mem j a v =
  if Hashtbl.mem j.mem a then begin
    Hashtbl.replace j.mem a v;
    j.rebound <- true
  end
  else record_mem j a v

(* conservative O(1) span test off the bounds above: [true] guarantees
   no memory binding lies in [lo, hi] (inclusive) — the block executor's
   is-this-code-span-journal-shadowed probe *)
let mem_avoids j ~lo ~hi = j.mem_n = 0 || j.mem_hi < lo || j.mem_lo > hi

let set j c v =
  match c with
  | Cell.Pc -> set_pc j v
  | Cell.Reg r -> set_reg j (Reg.to_int r) v
  | Cell.Mem a -> set_mem j a v

let find j = function
  | Cell.Pc -> pc j
  | Cell.Reg r ->
    let i = Reg.to_int r in
    if has_reg j i then Some (reg j i) else None
  | Cell.Mem a -> find_mem j a

let mem j c = find j c <> None

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let cardinal j = (if j.pc_set then 1 else 0) + popcount j.reg_mask + j.mem_n

let mem_value j a = Hashtbl.find j.mem a

let iter f j =
  if j.pc_set then f Cell.Pc j.pc;
  for i = 0 to Reg.count - 1 do
    if has_reg j i then f (Cell.Reg (Reg.of_int i)) (reg j i)
  done;
  for k = 0 to j.mem_n - 1 do
    let a = Array.unsafe_get j.mem_order k in
    f (Cell.mem a) (mem_value j a)
  done

let for_all p j =
  (not j.pc_set || p Cell.Pc j.pc)
  && (let ok = ref true in
      for i = 0 to Reg.count - 1 do
        if has_reg j i && not (p (Cell.Reg (Reg.of_int i)) (reg j i)) then
          ok := false
      done;
      !ok)
  && (let ok = ref true in
      for k = 0 to j.mem_n - 1 do
        if !ok then begin
          let a = Array.unsafe_get j.mem_order k in
          if not (p (Cell.mem a) (mem_value j a)) then ok := false
        end
      done;
      !ok)

(* a journal that never rebinds (every reads journal: first-reads only)
   answers from the flat log, without re-hashing a single address *)
let for_all_mem p j =
  let ok = ref true and k = ref 0 in
  while !ok && !k < j.mem_n do
    let a = Array.unsafe_get j.mem_order !k in
    let v =
      if j.rebound then mem_value j a else Array.unsafe_get j.mem_first !k
    in
    if not (p a v) then ok := false;
    incr k
  done;
  !ok

let to_fragment j =
  let f = ref Fragment.empty in
  iter (fun c v -> f := Fragment.add c v !f) j;
  !f
