//go:build amd64

#include "textflag.h"

// Byte-index tables for idScanBlocks. iota is 0…63. Lane l (bytes
// 8l…8l+7) of lanes is l in every byte: VPERMB by it broadcasts byte l
// of a vector across lane l. back is -8…-1 in every lane: added to an
// element's separator position, it addresses the 8 bytes before it.
DATA idscanIota<>+0(SB)/8, $0x0706050403020100
DATA idscanIota<>+8(SB)/8, $0x0f0e0d0c0b0a0908
DATA idscanIota<>+16(SB)/8, $0x1716151413121110
DATA idscanIota<>+24(SB)/8, $0x1f1e1d1c1b1a1918
DATA idscanIota<>+32(SB)/8, $0x2726252423222120
DATA idscanIota<>+40(SB)/8, $0x2f2e2d2c2b2a2928
DATA idscanIota<>+48(SB)/8, $0x3736353433323130
DATA idscanIota<>+56(SB)/8, $0x3f3e3d3c3b3a3938
GLOBL idscanIota<>(SB), RODATA|NOPTR, $64

DATA idscanLanes<>+0(SB)/8, $0x0000000000000000
DATA idscanLanes<>+8(SB)/8, $0x0101010101010101
DATA idscanLanes<>+16(SB)/8, $0x0202020202020202
DATA idscanLanes<>+24(SB)/8, $0x0303030303030303
DATA idscanLanes<>+32(SB)/8, $0x0404040404040404
DATA idscanLanes<>+40(SB)/8, $0x0505050505050505
DATA idscanLanes<>+48(SB)/8, $0x0606060606060606
DATA idscanLanes<>+56(SB)/8, $0x0707070707070707
GLOBL idscanLanes<>(SB), RODATA|NOPTR, $64

DATA idscanBack<>+0(SB)/8, $0xfffefdfcfbfaf9f8
DATA idscanBack<>+8(SB)/8, $0xfffefdfcfbfaf9f8
DATA idscanBack<>+16(SB)/8, $0xfffefdfcfbfaf9f8
DATA idscanBack<>+24(SB)/8, $0xfffefdfcfbfaf9f8
DATA idscanBack<>+32(SB)/8, $0xfffefdfcfbfaf9f8
DATA idscanBack<>+40(SB)/8, $0xfffefdfcfbfaf9f8
DATA idscanBack<>+48(SB)/8, $0xfffefdfcfbfaf9f8
DATA idscanBack<>+56(SB)/8, $0xfffefdfcfbfaf9f8
GLOBL idscanBack<>(SB), RODATA|NOPTR, $64

// func idScanBlocks(b []byte, ids []int) (n, adv int, closed bool)
//
// Register use. SI is the block, BX the bytes left from it, DI the
// next ID slot, CX the slots left. Per block, in GPRs with bit j for
// byte j: AX the digits, DX the separators (',' and ']'), R11 the ']'
// bytes and then the element starts, R12 the '0' bytes, R13 the
// separators taken, R9 the bytes taken, R10 the mask of them, R8 the
// bytes that refuse the block. Constants live in Z16–Z26, so the
// registers the Go ABI reserves (R14, R15, X15) are not touched.
TEXT ·idScanBlocks(SB), NOSPLIT, $0-65
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), BX
	MOVQ ids_base+24(FP), DI
	MOVQ ids_len+32(FP), CX
	MOVB $0, closed+64(FP)

	MOVL $0x30, AX                 // '0'
	VPBROADCASTB AX, Z16
	MOVL $9, AX
	VPBROADCASTB AX, Z17
	MOVL $0x2c, AX                 // ','
	VPBROADCASTB AX, Z18
	MOVL $0x5d, AX                 // ']'
	VPBROADCASTB AX, Z19
	VMOVDQU64 idscanIota<>(SB), Z20
	VMOVDQU64 idscanBack<>(SB), Z21
	VMOVDQU64 idscanLanes<>(SB), Z22
	MOVL $8, AX
	VPBROADCASTB AX, Z23
	MOVL $0x010a, AX               // bytes 10, 1: tens and units of a pair
	VPBROADCASTW AX, Z24
	MOVL $0x00010064, AX           // words 100, 1: a pair of pairs
	VPBROADCASTD AX, Z25
	MOVQ $10000, AX                // a quad of quads
	VPBROADCASTQ AX, Z26

block:
	// A block holds at most 32 elements ("0," is two bytes).
	CMPQ BX, $64
	JLT  done
	CMPQ CX, $32
	JLT  done

	// Byte classes.
	VMOVDQU64 (SI), Z0
	VPSUBB    Z16, Z0, Z1          // Z1 = byte - '0': the digit values
	VPCMPUB   $2, Z17, Z1, K1      // digit: byte - '0' <= 9 unsigned
	VPCMPEQB  Z18, Z0, K2
	VPCMPEQB  Z19, Z0, K3
	VPTESTNMB Z1, Z1, K4           // '0'
	KMOVQ     K1, AX
	KMOVQ     K2, DX
	KMOVQ     K3, R11
	KMOVQ     K4, R12
	ORQ       R11, DX

	// Take the bytes through the last separator at or before the
	// first ']': R13 the separators among them, R9 their count, R10
	// their mask. A block without a separator is refused.
	BLSMSKQ R11, R13               // bits through the first ']', all without one
	ANDQ    DX, R13
	LZCNTQ  R13, R8
	MOVQ    $64, R9
	SUBQ    R8, R9
	JZ      done
	MOVQ    $-1, R10
	BZHIQ   R9, R10, R10

	// Refuse the block on any byte taken that is neither digit nor
	// separator, an empty element, a leading zero, or 9 digits in a
	// row. Elements start at byte 0 and after each separator.
	MOVQ  AX, R8
	ORQ   DX, R8
	ANDNQ R10, R8, R8              // neither digit nor separator
	LEAQ  1(DX)(DX*1), R11
	ANDQ  R10, R11                 // R11 = element starts
	ANDQ  R11, DX
	ORQ   DX, R8                   // a start on a separator: empty
	ANDQ  R11, R12
	ANDQ  R10, AX
	MOVQ  AX, DX
	SHRQ  $1, DX
	ANDQ  DX, R12
	ORQ   R12, R8                  // a start on '0' before a digit
	ANDQ  DX, AX                   // digit runs of 2,
	MOVQ  AX, DX
	SHRQ  $2, DX
	ANDQ  DX, AX                   // 4,
	MOVQ  AX, DX
	SHRQ  $4, DX
	ANDQ  DX, AX                   // 8
	MOVQ  AX, DX
	SHRQ  $1, DX
	ANDQ  DX, AX                   // and 9
	ORQ   AX, R8
	TESTQ R8, R8
	JNZ   done

	// Z2 = each element's separator position, Z3 its start, in order.
	KMOVQ       R13, K1
	KMOVQ       R11, K2
	VPCOMPRESSB Z20, K1, Z2
	VPCOMPRESSB Z20, K2, Z3
	POPCNTQ     R13, AX            // elements in the block
	MOVQ        AX, R12            // elements left to fold
	MOVQ        DI, R10
	VMOVDQA64   Z22, Z4

	// Eight elements a step, one per qword lane: byte b of lane l is
	// the byte 8-b before element l's separator, zeroed before its
	// start, so each lane reads as the element's digits right-aligned
	// behind leading zeros.
group:
	VPERMB     Z2, Z4, Z5
	VPERMB     Z3, Z4, Z6
	VPADDB     Z21, Z5, Z5         // byte indices, -8…62
	VPCMPB     $5, Z6, Z5, K3      // index >= start, signed
	VPERMB.Z   Z1, Z5, K3, Z7
	VPMADDUBSW Z24, Z7, Z7         // 4 pairs of digits a lane
	VPMADDWD   Z25, Z7, Z7         // 2 quads
	VPMULUDQ   Z26, Z7, Z8         // high quad × 10^4
	VPSRLQ     $32, Z7, Z7
	VPADDQ     Z8, Z7, Z7
	MOVL       $0xff, DX
	BZHIQ      R12, DX, DX         // min(8, elements left) lanes
	KMOVQ      DX, K4
	VMOVDQU64  Z7, K4, (R10)
	ADDQ       $64, R10
	VPADDB     Z23, Z4, Z4
	SUBQ       $8, R12
	JG         group

	LEAQ (DI)(AX*8), DI
	SUBQ AX, CX
	ADDQ R9, SI
	SUBQ R9, BX
	CMPB -1(SI), $0x5d
	JNE  block
	MOVB $1, closed+64(FP)

done:
	VZEROUPPER
	MOVQ SI, AX
	SUBQ b_base+0(FP), AX
	MOVQ AX, adv+56(FP)
	MOVQ DI, AX
	SUBQ ids_base+24(FP), AX
	SHRQ $3, AX
	MOVQ AX, n+48(FP)
	RET
