// divergent: odd and even lanes take the two sides of a guarded branch
// and reconverge before the store, so the run depends on the kernel's
// reconvergence table. Input of the warpedsim -asm goldens and of
// TestAsmCompareKernelPerBuild.
.kernel divergent
	mov  r0, %tid.x
	and  r2, r0, 1
	setp.eq p0, r2, 0
@p0	bra Leven
	sub  r3, r0, 1
	bra  Ljoin
Leven:
	add  r3, r0, 1
Ljoin:
	mad  r1, %ctaid.x, %ntid.x, r0
	shl  r6, r1, 2
	st.global [r6], r3
	exit
