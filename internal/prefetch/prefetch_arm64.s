#include "textflag.h"

// func line(p unsafe.Pointer)
TEXT ·line(SB), NOSPLIT, $0-8
	MOVD	p+0(FP), R0
	PRFM	(R0), PLDL1KEEP
	RET
