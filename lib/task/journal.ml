module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Reg = Mssp_isa.Reg

(* Memory bindings live in an insertion-order log ([addrs]/[vals]) with
   an open-addressed index over it; the master's store buffer is one of
   these journals. The log is what makes the journal's iteration order a
   *contract* rather than an accident of hashing: a reads journal
   replays its first-reads in serial first-read order at verification
   time, whatever mixture of per-instruction recording and block-batched
   staging produced them, and whatever the log's capacity. That
   decouples the observable order from [mem_size]: any sizing is
   bit-identical.

   The index holds log positions ([-1] for an empty slot). Its size is a
   power of two and the log's capacity three quarters of it; the log
   grows the moment it fills, so the index always keeps an empty slot
   and a linear probe always ends. Probes and rebinds allocate
   nothing. *)
type t = {
  mutable pc : int;
  mutable pc_set : bool;
  regs : int array;
  mutable reg_mask : int; (* bit [Reg.to_int r] set iff the register is bound *)
  mutable addrs : int array; (* addresses, in first-binding order *)
  mutable vals : int array; (* current value of each logged address *)
  mutable n : int;
  mutable index : int array; (* log position of a slot's address, or -1 *)
  mutable mask : int; (* index size - 1 *)
  mutable mem_lo : int; (* bounds of every address ever bound; *)
  mutable mem_hi : int; (* lo > hi when no memory is bound *)
}

(* the smallest index size (a power of two, at least 8) whose log takes
   [n] bindings without growing *)
let rec index_size k n = if 3 * k / 4 > n then k else index_size (2 * k) n

(* most tasks bind a few dozen cells, and a journal is allocated per
   task, so an oversized log is promoted garbage on every spawn *)
let create ?(mem_size = 8) () =
  let size = index_size 8 mem_size in
  {
    pc = 0;
    pc_set = false;
    regs = Array.make Reg.count 0;
    reg_mask = 0;
    addrs = Array.make (3 * size / 4) 0;
    vals = Array.make (3 * size / 4) 0;
    n = 0;
    index = Array.make size (-1);
    mask = size - 1;
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

let[@inline] hash a mask = ((a * 0x9E3779B1) lsr 15) land mask

(* the slot holding [a], or the empty slot where it would go *)
let rec slot j a i =
  let p = Array.unsafe_get j.index i in
  if p < 0 || Array.unsafe_get j.addrs p = a then i
  else slot j a ((i + 1) land j.mask)

let[@inline] slot_of j a = slot j a (hash a j.mask)
let mem_pos j a = Array.unsafe_get j.index (slot_of j a)
let mem_value j p = Array.unsafe_get j.vals p
let mem_addr j p = Array.unsafe_get j.addrs p

let find_mem j a =
  let p = mem_pos j a in
  if p < 0 then None else Some (mem_value j p)

(* double the index and the log, then re-index the log *)
let grow j =
  let size = 2 * (j.mask + 1) in
  let resize a =
    let b = Array.make (3 * size / 4) 0 in
    Array.blit a 0 b 0 j.n;
    b
  in
  j.addrs <- resize j.addrs;
  j.vals <- resize j.vals;
  j.index <- Array.make size (-1);
  j.mask <- size - 1;
  for k = 0 to j.n - 1 do
    Array.unsafe_set j.index (slot_of j (Array.unsafe_get j.addrs k)) k
  done

(* bind a fresh address at its empty slot [s], growing as the log fills *)
let append j s a v =
  if a < j.mem_lo then j.mem_lo <- a;
  if a > j.mem_hi then j.mem_hi <- a;
  let k = j.n in
  Array.unsafe_set j.addrs k a;
  Array.unsafe_set j.vals k v;
  Array.unsafe_set j.index s k;
  j.n <- k + 1;
  if j.n = Array.length j.addrs then grow j

let set_mem j a v =
  let s = slot_of j a in
  let p = Array.unsafe_get j.index s in
  if p >= 0 then Array.unsafe_set j.vals p v else append j s a v

let record_mem j a v =
  let s = slot_of j a in
  if Array.unsafe_get j.index s < 0 then append j s a v

(* Empty the journal, keeping its grown arrays. Only the index slots the
   log used are reset, newest binding first: a binding's probe chain
   runs only through the slots of bindings logged before it, so each
   address still finds its own slot. O(bindings), not O(capacity). *)
let clear j =
  for k = j.n - 1 downto 0 do
    Array.unsafe_set j.index (slot_of j (Array.unsafe_get j.addrs k)) (-1)
  done;
  j.n <- 0;
  j.pc_set <- false;
  j.reg_mask <- 0;
  j.mem_lo <- max_int;
  j.mem_hi <- min_int

(* conservative O(1) span test off the bounds above: [true] guarantees
   no memory binding lies in [lo, hi] (inclusive) — the block executor's
   is-this-code-span-journal-shadowed probe *)
let mem_avoids j ~lo ~hi = j.n = 0 || j.mem_hi < lo || j.mem_lo > hi

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

let mem_count j = j.n
let cardinal j = (if j.pc_set then 1 else 0) + popcount j.reg_mask + j.n

let iter_mem f j =
  for k = 0 to j.n - 1 do
    f (Array.unsafe_get j.addrs k) (Array.unsafe_get j.vals k)
  done

let iter f j =
  if j.pc_set then f Cell.Pc j.pc;
  for i = 0 to Reg.count - 1 do
    if has_reg j i then f (Cell.Reg (Reg.of_int i)) (reg j i)
  done;
  iter_mem (fun a v -> f (Cell.mem a) v) j

let for_all_mem p j =
  let rec go k =
    k >= j.n
    || p (Array.unsafe_get j.addrs k) (Array.unsafe_get j.vals k)
       && go (k + 1)
  in
  go 0

let for_all p j =
  (not j.pc_set || p Cell.Pc j.pc)
  && (let ok = ref true in
      for i = 0 to Reg.count - 1 do
        if has_reg j i && not (p (Cell.Reg (Reg.of_int i)) (reg j i)) then
          ok := false
      done;
      !ok)
  && for_all_mem (fun a v -> p (Cell.mem a) v) j

let to_fragment j =
  let f = ref Fragment.empty in
  iter (fun c v -> f := Fragment.add c v !f) j;
  !f
