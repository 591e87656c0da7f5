type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Slt
  | Sle
  | Seq
  | Sne
[@@deriving eq, ord]

type cmp_op = Eq | Ne | Lt | Ge | Le | Gt [@@deriving eq, ord]

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t
  | Alui of alu_op * Reg.t * Reg.t * int
  | Li of Reg.t * int
  | Ld of Reg.t * Reg.t * int
  | St of Reg.t * Reg.t * int
  | Br of cmp_op * Reg.t * Reg.t * int
  | Jmp of int
  | Jal of Reg.t * int
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t
  | Out of Reg.t
  | Fork of int
  | Halt
  | Nop
[@@deriving eq, ord]

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Slt -> "slt"
  | Sle -> "sle"
  | Seq -> "seq"
  | Sne -> "sne"

let all_alu_ops =
  [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Slt; Sle; Seq; Sne ]

let all_cmp_ops = [ Eq; Ne; Lt; Ge; Le; Gt ]

let cmp_op_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Le -> "le"
  | Gt -> "gt"

let alu_op_of_name s =
  List.find_opt (fun op -> alu_op_name op = s) all_alu_ops

let cmp_op_of_name s =
  List.find_opt (fun op -> cmp_op_name op = s) all_cmp_ops

let pp_alu_op fmt op = Format.pp_print_string fmt (alu_op_name op)
let pp_cmp_op fmt op = Format.pp_print_string fmt (cmp_op_name op)

let bool_to_int b = if b then 1 else 0

let eval_alu op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)
  | Slt -> bool_to_int (a < b)
  | Sle -> bool_to_int (a <= b)
  | Seq -> bool_to_int (a = b)
  | Sne -> bool_to_int (a <> b)

let eval_cmp op a b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Le -> a <= b
  | Gt -> a > b

let pp fmt i =
  let r = Reg.name in
  match i with
  | Alu (op, rd, rs1, rs2) ->
    Format.fprintf fmt "%s %s, %s, %s" (alu_op_name op) (r rd) (r rs1) (r rs2)
  | Alui (op, rd, rs1, imm) ->
    Format.fprintf fmt "%si %s, %s, %d" (alu_op_name op) (r rd) (r rs1) imm
  | Li (rd, imm) -> Format.fprintf fmt "li %s, %d" (r rd) imm
  | Ld (rd, rs1, off) -> Format.fprintf fmt "ld %s, %d(%s)" (r rd) off (r rs1)
  | St (rs2, rs1, off) -> Format.fprintf fmt "st %s, %d(%s)" (r rs2) off (r rs1)
  | Br (c, rs1, rs2, off) ->
    Format.fprintf fmt "b%s %s, %s, %d" (cmp_op_name c) (r rs1) (r rs2) off
  | Jmp off -> Format.fprintf fmt "jmp %d" off
  | Jal (rd, off) -> Format.fprintf fmt "jal %s, %d" (r rd) off
  | Jr rs -> Format.fprintf fmt "jr %s" (r rs)
  | Jalr (rd, rs) -> Format.fprintf fmt "jalr %s, %s" (r rd) (r rs)
  | Out rs -> Format.fprintf fmt "out %s" (r rs)
  | Fork pc -> Format.fprintf fmt "fork %d" pc
  | Halt -> Format.pp_print_string fmt "halt"
  | Nop -> Format.pp_print_string fmt "nop"

let show i = Format.asprintf "%a" pp i

(* Encoding layout, LSB first:
   [0..7]   opcode
   [8..12]  rd
   [13..17] rs1
   [18..22] rs2
   [23..54] imm, 32-bit two's complement
   Words with any other bit set, or an unknown opcode, fail to decode. *)

let imm_bits = 32
let imm_min = -(1 lsl (imm_bits - 1))
let imm_max = (1 lsl (imm_bits - 1)) - 1
let imm_fits v = v >= imm_min && v <= imm_max

(* Opcodes. ALU register ops occupy [0x10 + op], ALU immediate ops
   [0x30 + op]; all others are individually assigned below 0x10. *)
let opc_li = 0x01
let opc_ld = 0x02
let opc_st = 0x03
let opc_br = 0x04 (* + cmp index encoded in rs2-free bits: use 0x04+c *)
let opc_jmp = 0x0a
let opc_jal = 0x0b
let opc_jr = 0x0c
let opc_jalr = 0x0d
let opc_out = 0x0e
let opc_fork = 0x0f
let opc_halt = 0x50
let opc_nop = 0x51
let opc_alu_base = 0x10
let opc_alui_base = 0x30

let alu_op_index op =
  let rec find i = function
    | [] -> assert false
    | x :: rest -> if x = op then i else find (i + 1) rest
  in
  find 0 all_alu_ops

let alu_op_of_index i = List.nth_opt all_alu_ops i

let cmp_op_index op =
  let rec find i = function
    | [] -> assert false
    | x :: rest -> if x = op then i else find (i + 1) rest
  in
  find 0 all_cmp_ops

let cmp_op_of_index i = List.nth_opt all_cmp_ops i

let pack ~opc ?(rd = 0) ?(rs1 = 0) ?(rs2 = 0) ?(imm = 0) () =
  if not (imm_fits imm) then
    invalid_arg (Printf.sprintf "Instr.encode: immediate %d does not fit" imm);
  let imm_field = imm land 0xFFFFFFFF in
  opc lor (rd lsl 8) lor (rs1 lsl 13) lor (rs2 lsl 18) lor (imm_field lsl 23)

let encode i =
  let ri = Reg.to_int in
  match i with
  | Alu (op, rd, rs1, rs2) ->
    pack ~opc:(opc_alu_base + alu_op_index op) ~rd:(ri rd) ~rs1:(ri rs1)
      ~rs2:(ri rs2) ()
  | Alui (op, rd, rs1, imm) ->
    pack ~opc:(opc_alui_base + alu_op_index op) ~rd:(ri rd) ~rs1:(ri rs1) ~imm
      ()
  | Li (rd, imm) -> pack ~opc:opc_li ~rd:(ri rd) ~imm ()
  | Ld (rd, rs1, off) -> pack ~opc:opc_ld ~rd:(ri rd) ~rs1:(ri rs1) ~imm:off ()
  | St (rs2, rs1, off) ->
    pack ~opc:opc_st ~rs2:(ri rs2) ~rs1:(ri rs1) ~imm:off ()
  | Br (c, rs1, rs2, off) ->
    pack ~opc:(opc_br + cmp_op_index c) ~rs1:(ri rs1) ~rs2:(ri rs2) ~imm:off ()
  | Jmp off -> pack ~opc:opc_jmp ~imm:off ()
  | Jal (rd, off) -> pack ~opc:opc_jal ~rd:(ri rd) ~imm:off ()
  | Jr rs -> pack ~opc:opc_jr ~rs1:(ri rs) ()
  | Jalr (rd, rs) -> pack ~opc:opc_jalr ~rd:(ri rd) ~rs1:(ri rs) ()
  | Out rs -> pack ~opc:opc_out ~rs1:(ri rs) ()
  | Fork pc -> pack ~opc:opc_fork ~imm:pc ()
  | Halt -> pack ~opc:opc_halt ()
  | Nop -> pack ~opc:opc_nop ()

let sign_extend_imm v = if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let decode w =
  if w < 0 || w lsr 55 <> 0 then None
  else
    let opc = w land 0xFF in
    let rd = (w lsr 8) land 0x1F in
    let rs1 = (w lsr 13) land 0x1F in
    let rs2 = (w lsr 18) land 0x1F in
    let imm = sign_extend_imm ((w lsr 23) land 0xFFFFFFFF) in
    let reg = Reg.of_int in
    if opc >= opc_alu_base && opc < opc_alu_base + List.length all_alu_ops then
      match alu_op_of_index (opc - opc_alu_base) with
      | Some op when imm = 0 -> Some (Alu (op, reg rd, reg rs1, reg rs2))
      | _ -> None
    else if
      opc >= opc_alui_base && opc < opc_alui_base + List.length all_alu_ops
    then
      match alu_op_of_index (opc - opc_alui_base) with
      | Some op when rs2 = 0 -> Some (Alui (op, reg rd, reg rs1, imm))
      | _ -> None
    else if opc >= opc_br && opc < opc_br + List.length all_cmp_ops then
      match cmp_op_of_index (opc - opc_br) with
      | Some c when rd = 0 -> Some (Br (c, reg rs1, reg rs2, imm))
      | _ -> None
    else if opc = opc_li then
      if rs1 = 0 && rs2 = 0 then Some (Li (reg rd, imm)) else None
    else if opc = opc_ld then
      if rs2 = 0 then Some (Ld (reg rd, reg rs1, imm)) else None
    else if opc = opc_st then
      if rd = 0 then Some (St (reg rs2, reg rs1, imm)) else None
    else if opc = opc_jmp then
      if rd = 0 && rs1 = 0 && rs2 = 0 then Some (Jmp imm) else None
    else if opc = opc_jal then
      if rs1 = 0 && rs2 = 0 then Some (Jal (reg rd, imm)) else None
    else if opc = opc_jr then
      if rd = 0 && rs2 = 0 && imm = 0 then Some (Jr (reg rs1)) else None
    else if opc = opc_jalr then
      if rs2 = 0 && imm = 0 then Some (Jalr (reg rd, reg rs1)) else None
    else if opc = opc_out then
      if rd = 0 && rs2 = 0 && imm = 0 then Some (Out (reg rs1)) else None
    else if opc = opc_fork then
      if rd = 0 && rs1 = 0 && rs2 = 0 then Some (Fork imm) else None
    else if opc = opc_halt then
      if rd = 0 && rs1 = 0 && rs2 = 0 && imm = 0 then Some Halt else None
    else if opc = opc_nop then
      if rd = 0 && rs1 = 0 && rs2 = 0 && imm = 0 then Some Nop else None
    else None

(* Decoding is referentially transparent, so a memo keyed by the word
   itself is always sound. A direct-mapped table (two parallel arrays:
   tag word, memoized result) replaces the previous bounded Hashtbl: a
   collision evicts the old entry instead of silently ceasing to cache
   once a cap is reached, so large fuzz programs never degrade to cold
   decode — every recently fetched word stays memoized. Slots start as
   the valid entry (0, decode 0), so an uninitialized tag can never
   produce a wrong hit. The table is domain-local: [Pool.map_runs] runs
   whole simulations on several domains at once, and shared arrays
   would race on publication — per-domain tables memoize the same pure
   function, so results cannot differ across domains. (Hot engines
   bypass this path entirely via [Program.decode_all] images.) *)
let decode_slot_bits = 14
let decode_slots = 1 lsl decode_slot_bits
let decode_slot_mask = decode_slots - 1

let decode_cache_key : (int array * t option array) Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      (Array.make decode_slots 0, Array.make decode_slots (decode 0)))

let decode_slot w =
  (w lxor (w lsr decode_slot_bits) lxor (w lsr 31) lxor (w lsr 45))
  land decode_slot_mask

let decode_cached w =
  let tags, results = Domain.DLS.get decode_cache_key in
  let slot = decode_slot w in
  if Array.unsafe_get tags slot = w then Array.unsafe_get results slot
  else begin
    let r = decode w in
    Array.unsafe_set tags slot w;
    Array.unsafe_set results slot r;
    r
  end

let reads ~pc:_ i =
  match i with
  | Alu (_, _, rs1, rs2) -> [ `Reg rs1; `Reg rs2 ]
  | Alui (_, _, rs1, _) -> [ `Reg rs1 ]
  | Li _ -> []
  | Ld (_, rs1, off) -> [ `Reg rs1; `Mem_at (rs1, off) ]
  | St (rs2, rs1, _) -> [ `Reg rs2; `Reg rs1 ]
  | Br (_, rs1, rs2, _) -> [ `Reg rs1; `Reg rs2 ]
  | Jmp _ | Jal _ | Fork _ | Halt | Nop -> []
  | Jr rs | Jalr (_, rs) -> [ `Reg rs ]
  | Out rs -> [ `Reg rs ]

let writes_reg i =
  let dest rd = if Reg.equal rd Reg.zero then None else Some rd in
  match i with
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Li (rd, _) | Ld (rd, _, _) ->
    dest rd
  | Jal (rd, _) | Jalr (rd, _) -> dest rd
  | St _ | Br _ | Jmp _ | Jr _ | Out _ | Fork _ | Halt | Nop -> None

let is_control = function
  | Br _ | Jmp _ | Jal _ | Jr _ | Jalr _ | Halt -> true
  | Alu _ | Alui _ | Li _ | Ld _ | St _ | Out _ | Fork _ | Nop -> false

let branch_targets ~pc i =
  match i with
  | Br (_, _, _, off) -> [ pc + off; pc + 1 ]
  | Jmp off -> [ pc + off ]
  | Jal (_, off) -> [ pc + off ]
  | Jr _ | Jalr _ -> []
  | Halt -> []
  | Alu _ | Alui _ | Li _ | Ld _ | St _ | Out _ | Fork _ | Nop -> [ pc + 1 ]
