# Convenience targets for the Vienna Fortran reproduction.

GO ?= go

.PHONY: all build vet test race loc dead flake check check-halo check-pic check-fault check-recovery check-online check-redist check-expand check-io check-drain check-kernels check-portable check-wire check-allocs check-analysis fuzz-distribute soak bench bench-kernels bench-wire examples experiments analyze clean

all: build check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines per package (bench/ is the benchmark, not the
# system) and their total: the number ROADMAP aim 2 is judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l \
	  | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	         END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total (non-test, outside bench/)\n", t }' \
	  | sort -k2

# The reachability gate (ROADMAP aim 2): every non-test function is
# reached from a main of cmd/, examples/ or bench/, an init, an exported
# func or var of vienna.go, a package-level use, or an interface its
# receiver implements — or is listed, with its reason, in
# testdata/reachable_allow.txt.  TestReachable runs in tier-1; this
# prints its listing: file:line, function and length of everything only
# tests reach.
dead:
	@$(GO) test -count=1 -run '^TestReachable$$' -v . | sed -n 's/^ *reachable_test.go:[0-9]*: //p'

# Static checks plus the race detector over the runtime packages and
# vfrun — the SPMD engine is all goroutines, so data races are the bug
# class to gate on, and vfrun's tests are the ones that drive the
# interpreted Figure 2 through checkpoint, recover, online-recover and
# corrupt-fault runs — and the benchmark's smoke, which pins the import surface bench/
# freezes and every replica checksum against its app.  Part of the
# default target.  It writes no committed file.
check: check-fault check-recovery check-online check-redist check-halo check-pic check-expand check-io check-drain check-kernels check-portable check-wire check-allocs check-analysis
	$(GO) vet ./...
	$(GO) test -race ./internal/...
	$(GO) test -race ./cmd/vfrun
	$(GO) test ./bench

# The memory-bounded redistribution matrix: every plan the planner
# selects simulated bit-identical to the unbudgeted move across
# distribution crossings, its ring-round peak recomputed from the
# schedules, the selection rule, and the executor's measured peak wire
# bytes held to the modelled peak on chan and TCP; measured peak <= budget
# end to end (array 32x the budget, an elastic run over TCP), exact
# byte/message parity on the unbounded path and chan/TCP parity of
# contents, counts and modelled time across the chain crossings, the
# window offer/pull pair (multi-rect transfers with one done token per
# window, ghosted layouts, warm allocation bounds on chan, released
# payloads on TCP), every run of a cyclic crossing affine on both ends
# (TestDimSpanInterleavedRuns), the
# symmetric no-plan failure, the np-keyed move table, closed-form
# schedules equal to the per-peer reference (TestScheduleMatchesReference),
# a fresh-bounds move planned and laid out in reused storage
# (TestRebalanceWarmAllocs, TestRecycledStorageFreshBounds), the budget parser
# and its fuzz seeds, FuzzDistribute's corpus (values, bytes and messages
# of random crossings, replicated ones included, against closed forms
# from the distributions, and no wire residency over channels), the wire
# gauge, and
# the barrier-free DISTRIBUTE: no Comm.Barrier in warm ADI or fresh
# B_BLOCK class moves, ghosts exact after a move with one rank held back,
# recycled storage intact under a lagging puller, the connect class moved
# in one message per peer pair (its bytes the members', its values the
# per-member moves', per member under a budget, a secondary moved alone
# after it under a lagging puller, a faulty class frame named), and
# interpreted non-local reads around a DISTRIBUTE equal to P = 1; the
# rect paths every array byte moves by (pack/apply, self-copy, gather and
# resized restore against per-point references, their warm allocations)
# and the checkpoint rank files pinned by hash — all under the race
# detector.
check-redist:
	$(GO) test -race -run 'TestPackUnpack|TestCopyGrid|TestUnpackPartRuns|TestPackAllocsPerRun|TestSaveRankFilesGolden|TestPlan|TestRedistributeMemBudget|TestRedistributeUnboundedExactCounts|TestRedistributeBudgetInfeasible|TestDimSpanInterleavedRuns|TestRedistributeGhostedRects|TestRedistributeWarmAllocs|TestRebalanceWarmAllocs|TestScheduleMatchesReference|TestRecycledStorageFreshBounds|TestRedistributeTCPReleasesPayloads|TestWindowOfferPull|AllocatesNothing|TestMoveTable|FuzzDistribute|TestParseBudget|FuzzParseBudget|TestWireGauge|TestExpandRespectsMemBudget|TestDistributeBarrierFree|TestDistributeThenGhostsDelayedRank|TestDistributeLaggingPuller|TestDistributeThenNonLocalReads|TestDistributeClass' \
	  ./internal/redist ./internal/darray ./internal/msg ./internal/apps ./internal/core ./internal/interp ./internal/ckpt

# The allocation gates, at GOMAXPROCS 1 and 2, three runs each: a warm
# DISTRIBUTE statement allocates nothing in Figure 1's, Example 3's
# extraction and a connect class's form (TestDistributeStatementWarmAllocs),
# nor does resolving a held mapping on a shrunken view, whose target is
# resolved once per epoch (TestDistributeEpochTarget); darray's warm and
# fresh-bounds moves, the warm ghost exchange and checkpoint save keep
# their bounds (*WarmAllocs); a first move plans in storage sized once
# (TestColdPlanAllocs); Owner allocates nothing (TestOwnerAllocs), nor do
# FillFunc, Fill and the storage-run walk (TestFillReduceAllocs); a warm
# step of each benchmark-shaped run stays under its ceiling in
# internal/apps/testdata/step_allocs.json (TestStepAllocs).  Then
# resolution returns only the mapping a statement denotes, ranks sharing
# one Expr, under the race detector.
check-allocs:
	for p in 1 2; do \
	  GOMAXPROCS=$$p $(GO) test -count=3 -run 'WarmAllocs|ColdPlanAllocs|OwnerAllocs|TestFillReduceAllocs|TestStepAllocs|TestDistributeEpochTarget|TestIs$$' \
	    ./internal/core ./internal/darray ./internal/dist ./internal/ckpt ./internal/apps || exit 1; \
	done
	$(GO) test -race -count=1 -run 'TestDistributeResolution|TestIs$$' ./internal/core ./internal/dist

# The §3.1 analysis held to the run, by one alignment rule: the pattern
# dist.ConstructPattern derives has the kinds of dist.Construct's type,
# or both refuse, and decided queries agree, over 10 000 seeded (primary
# type, alignment, processor shape) triples at P = 1-6
# (TestConstructPatternProperty); aligned arrays' IDT verdicts are the
# branches a 4-rank run takes (TestStaticVerdictMatchesRun); a stride
# over CYCLIC is diagnosed (TestStrideOverCyclicDiagnosed); and the five
# demos' reports equal cmd/vfanalyze/testdata byte for byte
# (TestDemosComm).  The packages whole: a few seconds.
check-analysis:
	$(GO) test -count=1 ./internal/dist ./internal/sem ./internal/analysis ./cmd/vfanalyze

# FuzzDistribute beyond its corpus, on two workers: random 1-D and 2-D
# crossings of BLOCK, CYCLIC(k), B_BLOCK, S_BLOCK and ':' over 1-6 ranks
# on lines and grids of processors, each held to its closed-form values,
# bytes and messages and every rank's schedule to the per-peer reference.
fuzz-distribute:
	$(GO) test -run '^$$' -fuzz '^FuzzDistribute$$' -fuzztime 5m -parallel 2 ./internal/darray

# The depth-k halo: smoothing at forced depths 1, 2, 3 and 5 bit-identical
# to the serial reference with claim C1's exact counts at depth k (columns,
# 2x2 and 3x3 blocks, uneven N, chan and TCP),
# the model's depth and a depth-5 run recovered mid-block, every other
# TestSmoothing*; corners forwarded into a width-3 ring on an uneven 3x3
# grid, a barrier-free depth-3 stencil with a sleeping rank (passes only
# while each rank applies its own faces), the split-phase exchange, the
# warm exchange's allocation bound, and the window puts with their fault
# matrix — all under the race detector.
check-halo:
	$(GO) test -race -count=1 -run 'TestSmoothing|TestOnlineRecoverSmoothingDepth|TestGhostCornersDepth3Uneven|TestGhostDepthSkew|TestStartExchangeGhosts|TestGhostExchangeWarmAllocs|TestWindowPut|TestFaultMatrixWindow' \
	  ./internal/apps ./internal/darray ./internal/msg

# Figure 2's PIC: the depth-k drift bit-identical to the serial reference
# on 2–7 ranks over chan and TCP, its frame count per block and its frame
# checks, the batched imbalance reduction against a per-step one (plain,
# recovered, killed mid-batch), update_field on CYCLIC(k) layouts
# against the per-cell chain, the interpreted listing equal to RunPIC
# on 1–7 ranks over chan and TCP, timing out on a lost drift frame and
# resuming on fewer ranks mid-loop, and the degraded restore and trace
# tests — all under the race detector.
check-pic:
	$(GO) test -race -run '^TestPIC' ./internal/apps

# The elastic scale-OUT matrix: the join protocol (admit, reject-by-
# timeout, a join racing a death, two deaths at the same moment),
# expand-restores onto more ranks, the epoch-headroom and budget-parse
# overflow guards, physical-rank gauge attribution across epochs, and the
# end-to-end apps that admit a joiner mid-run and finish bit-exact — all
# under the race detector.
check-expand:
	$(GO) test -race -run 'TestJoin|TestAdmit|TestRegroupTwoDead|TestExpand|TestRestoreOnto|TestFoldTagBoundary|TestParseBudgetOverflow|TestWireGaugeCrossEpoch' \
	  ./internal/machine ./internal/ckpt ./internal/msg ./internal/redist ./internal/darray ./internal/apps

# The online-recovery matrix: deaths confirmed from missed deadlines by
# one probe (a silenced rank confirmed, a sleeping one and a lost frame
# not), membership-epoch regroup agreement, epoch-folded tag views and
# their suspicion hook, typed epoch revocation, per-message CRC32C
# integrity (bitflip -> named transport error, zero panics), and the
# kill-a-rank-mid-run apps that regroup and finish in the same process,
# bit-for-bit against the serial reference, and vfrun's interpreted
# Figure 2 doing the same — all under the race detector.
check-online:
	$(GO) test -race -run 'TestOnlineRecover|TestOnlineBitflip|TestOnlineIntegrity|TestSoakOnline|TestLiveness|TestRegroup|TestEpochRevoked|TestExcluded|TestIntegrity|TestView|TestFoldTag' \
	  ./internal/msg ./internal/machine ./internal/apps ./cmd/vfrun

# The kill-a-rank matrix: checkpoint round-trips across every
# distribution kind (incl. shrink restores), restores that read only the
# rank files they need, failure detection
# from missed deadlines, goroutine-leak gates, and the end-to-end kill-and-recover
# apps and listing — all under the race detector.
check-recovery:
	$(GO) test -race -run 'TestRoundTrip|TestRestoreOnto|TestRestoreReadsOwnFile|TestEpochs|TestCorrupt|TestInterrupted|TestLiveness|TestSurvivors|TestErroringRun|TestPanickingRun|TestADIKillAndRecover|TestADIRecover|TestSmoothingRecover|TestPICRecover|TestListingRecover' \
	  ./internal/ckpt ./internal/machine ./internal/apps

# The straggler-defense matrix: the voluntary-drain protocol (basic
# drain, drain racing a real death in one transition, drained-rank
# goroutine leak gates), the health scorer's hysteresis and EWMA
# arithmetic and its one slow band against the two-band reference over
# 10 000 seeded runs, the slow transport fault and the retry backoff, the
# decisions, the weighted bounds and fair shares a rebalance divides by,
# Figure 2's balance() bounds, and the end-to-end apps matrix — chan and
# TCP × rebalance and drain, ADI/PIC/smoothing, bit-exact across the
# drain epoch transition — all under the race detector.
check-drain:
	$(GO) test -race -run 'TestDrain|TestHealth|TestHysteresis|TestPauseEcho|TestStreakSurvives|TestOneBandMatchesTwoBand|TestSlowFault|TestBackoffDelay|TestStraggler|TestWeightedBounds|TestFairShares|TestDecisionStrings|TestDecide|TestCountBounds|TestWeightedCountBounds' \
	  ./internal/machine ./internal/health ./internal/msg ./internal/apps

# The verdicts timing can move (ROADMAP item 1): FLAKE_N runs of every
# TestStraggler*, TestOnlineRecover*, TestPIC* and TestExpandPIC* test
# (PIC runs up to RebalanceEvery steps between two rendezvous), of
# the health package (whose scorer those verdicts come from), of the
# darray package (whose DISTRIBUTE orders itself by messages, not
# barriers), the ckpt package (whose save folds parity partials over
# a tree) and the machine package (whose deaths are confirmed from
# missed deadlines), and of msg's TestRecvTimeoutCheap (a goroutine
# count) and TestSlowFault* (a straggler's stall), under
# GOMAXPROCS=1 and 2 beside a busy-loop CPU hog.  Per test it prints how
# many runs failed and, for each failing run, the first *_test.go:N: line
# that test logged — enough to tell a false accusation from a false death
# without a rerun.  Compare two trees by running it in each, alternating,
# in one session.
FLAKE_N ?= 10
flake:
	@sh -c 'while :; do :; done' & hog=$$!; trap "kill $$hog" EXIT; \
	for p in 1 2; do \
	  for set in './internal/apps:^(TestStraggler|TestOnlineRecover|TestPIC|TestExpandPIC)' './internal/health:.' './internal/darray:.' './internal/ckpt:.' './internal/machine:.' './internal/msg:^(TestRecvTimeoutCheap$$|TestSlowFault)'; do \
	    pkg=$${set%%:*}; pat=$${set#*:}; \
	    echo "GOMAXPROCS=$$p, $$pkg, $(FLAKE_N) runs each, beside a CPU hog:"; \
	    GOMAXPROCS=$$p $(GO) test -count=$(FLAKE_N) -run "$$pat" -v $$pkg 2>&1 | \
	      awk '/^=== (RUN|CONT)/ { cur = $$3; sub("/.*", "", cur); next } \
	           /_test\.go:[0-9]+:/ { if (!(cur in first)) { l = $$0; sub(/^[ \t]+/, "", l); first[cur] = l }; next } \
	           /^--- (PASS|FAIL)/ { t = $$3; n[t]++; \
	             if ($$2 == "FAIL:") { f[t]++; why[t] = why[t] sprintf("%s\t1\t      run %d: %s\n", t, n[t], (t in first) ? first[t] : "(no test line logged)") } \
	             delete first[t] } \
	           END { for (t in n) { printf "%s\t0\t  %-44s %d of %d failed\n", t, t, f[t], n[t]; printf "%s", why[t] } }' | \
	      sort -t "$$(printf '\t')" -k1,1 -k2,2n -s | cut -f3-; \
	  done; \
	done

# Bounded chaos run: seeded-random ADI shapes killed at seeded-random
# points by a seeded-random permanently silent rank, recovered — offline
# on the survivors (TestSoakChaos) and online in the same process via
# membership-epoch regroup (TestSoakOnline) — and checked against the
# serial reference (8/6 rounds; the plain test suite runs 2 of each).
soak:
	SOAK=1 $(GO) test -race -run 'TestSoakChaos|TestSoakOnline' -count=1 -v ./internal/apps

# The crash-safe parallel-I/O matrix: the FaultFS schedules (eio/short/
# torn/bitrot/stall, seeded prob, per-rank counters), rank files and
# parity/replica reconstruction, the crash-during-Save abort stages (no
# partial epoch ever commits), the disk-damage x restore matrix on both
# transports, retention pruning, epoch fallback (past damaged and
# format-1 epochs alike), the disk deadline that escalates like the
# wire's (TestStallDeadlineEscalates), and the degraded end-to-end apps —
# all under the race detector (the I/O servers and retry paths add
# goroutines), vfrun's -io-fault run healed by the disk retries, and
# vfrun's -recover runs (fig1, fig2) giving the plain run's checksums.
check-io:
	$(GO) test -race -count=1 ./internal/pario ./internal/ckpt
	$(GO) test -race -count=1 -run 'Degraded|DoubleDamage' ./internal/apps
	$(GO) test -race -count=1 -run 'TestIOFaultKeepsChecksums|TestRecoverKeepsChecksums' ./cmd/vfrun

# The fault-injection matrix: every collective pattern under injected
# send errors, delivery delays, and dropped frames, on both transports,
# with the race detector on (the retry/deadline paths add goroutines),
# and vfrun's corrupt rule caught by the CRC32C layer it implies.
check-fault:
	$(GO) test -race -run 'TestFaultMatrix|TestFault|TestCollectiveTimeout|TestCollectiveHeals|TestCollectiveTagNeverWraps|TestRecvTimeout|TestCorruptFaultIsCaught' ./internal/msg ./internal/darray ./cmd/vfrun

# The kernel bit-identity contract: Factor.Solve, and its Forward/Back
# segment sweeps chained over 1..5 segments (empty ones included; the
# static ADI's pipeline), against the per-line TridiagStrided (bits on
# signed zeros, denormals and infinities, odd and even starts, every
# lines-mod-4 and lines-mod-interleave tail, the layouts that panic, the
# fuzz seeds with a random cut) and SmoothRow against the per-point
# loop it replaced (bits, untouched neighbours, the spans that panic, the
# fuzz seeds), by Float64bits — on the default build (amd64: the SSE2
# kernels of factor_amd64.s and smooth_amd64.s), under the race detector
# (the Go loops are the whole kernels there) and, where the host can run
# it, under GOAMD64=v3, the one amd64 configuration in which the compiler
# may fuse multiply-add.  go1.24 fuses no x - m*y there; the v3 run is the
# tripwire for a toolchain that does, and if it trips the answer is
# `&& !amd64.v3` on the assembly's build tags (the Go loops then fuse on
# both sides of the comparison), not a tolerance.  Nothing is downloaded.
check-kernels:
	$(GO) test -count=1 ./internal/kernels
	$(GO) test -race -count=1 ./internal/kernels
	@if grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | grep -qw fma && \
	    grep -m1 '^flags' /proc/cpuinfo | grep -qw avx2; then \
	  echo 'GOAMD64=v3 $(GO) test -count=1 ./internal/kernels'; \
	  GOAMD64=v3 $(GO) test -count=1 ./internal/kernels; \
	else \
	  echo 'check-kernels: host CPU lacks fma/avx2, skipping the GOAMD64=v3 run'; \
	fi

# Build-tagged twins no test host builds both of.  The byte-view helper
# (msg.PutFloat64s/GetFloat64s) has a little-endian build that copies a
# []float64's memory as wire bytes and a portable one that encodes element
# by element; every host that runs the tests is little-endian, so the
# other file is cross-built and vetted for a big-endian target to keep it
# from rotting.  kernels.SmoothRow and kernels.Factor.Solve have amd64
# assembly kernels and Go ones for every other GOARCH (smooth_generic.go,
# factor_generic.go), so the Go side is vetted for arm64 and s390x (whose
# build of ./... compiles it).  Offline; about 12 s cold.
check-portable:
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/msg ./internal/darray ./internal/kernels
	GOARCH=arm64 $(GO) vet ./internal/kernels

# The byte path off shared memory: the frozen wire format and the frame
# limit (golden frames — plain, gathered from a two-share offer's storage
# runs, packed from a strided rect, each with and without the CRC — header
# fuzz seeds, both refusals), the allgather
# frame every checkpoint commit decodes (crafted frames fail with an
# error naming the rank, never a panic; fuzz seeds), the rect
# check every window transfer runs (fuzz seeds: no rect that validates
# addresses outside its storage), receive-buffer
# ownership (held payloads never change, a released buffer serves one
# packet at a time), the warm allocation bounds of a TCP round trip, of
# a gathered offer over TCP+CRC (none) and of a timed receive, each
# decorator's hold on both sends and both receives and one exchange
# alike over all sixteen transport stacks, a window offer booked once by
# the transport on chan and TCP alike, the word-wise XOR against the byte loop, the rank files and the parity
# fold (files byte-identical to a point-by-point image on 1-8 ranks, exact
# counts, the modelled critical path, a short partial failing the epoch,
# the rank-file parser's and the manifest decoder's fuzz seeds) — then the
# three packages whole, under the race
# detector on one and on two processors, since buffers now change hands
# between the reader goroutines and the ranks.
check-wire:
	$(GO) test -race -count=1 -run 'TestTCPFrameGolden|FuzzTCPFrameHeader|TestAllgatherRejectsBadFrames|FuzzAllgatherFrame|FuzzRectValidate|TestTCPReaderRejectsOversizedLength|TestTCPSendRefusesOversizedFrame|TestPacketReleaseAliasing|TestTCPSteadyStateAllocs|TestTCPGatheredOfferAllocs|TestRecvTimeoutCheap|TestLayerInterception|TestStackConformance|TestWindowOfferPullRing|TestXorIntoWords|TestSaveCounts|TestSaveShortPartialFailsEpoch|TestParityFoldMatrix|TestSaveCriticalPath|FuzzStripePayloads|FuzzManifest' \
	  ./internal/msg ./internal/pario ./internal/ckpt
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/msg ./internal/ckpt ./internal/pario
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/msg ./internal/ckpt ./internal/pario

# The benchmark spine: four paper workloads, one result schema
# (bench/README.md); results land in bench/out/.
bench:
	$(GO) run ./bench

# The kernel layer.  ADI, ns per element on one rank's 1024 x 256 block
# in both layouts: the per-line reference (what the spine's frozen
# kernels.tridiag*_ns_per_elem probes time), the batched Factor.Solve the
# apps run and the same with the Go loops as the whole kernel
# (BenchmarkFactorSolveGo: every GOARCH but amd64, and -race).  Reference
# box, Factor.Solve: stride1 2.8 -> 1.6-1.7 and lineStride1 2.3-2.5 ->
# 1.1-1.2 with the SSE2 kernels (Go loops alone: 2.8 / 2.1).  Smoothing, ns
# per point over a 1024-wide block resident in L2 (64 rows) and streamed
# (1024 rows, one rank of smooth_halo): SmoothRow as built, the Go loop
# alone, and a copy of the same block — the streaming floor, so the
# roofline ratio is one command.  Reference box, L2 shape: 1.53 with
# per-point bounds checks -> 0.97 with the bounds hoisted per row -> 0.50
# with the SSE2 row kernel.  PIC's update_field, ns per particle-op on one
# rank's 128 cells of 512 particles, uniform and with a 51512-particle
# pile-up cell: ParticleWork 0.26-0.31 / 0.57-0.91 against 2.0-2.7 /
# 1.5-2.2 for the per-cell chain (2-core Xeon VM).
bench-kernels:
	$(GO) test -run XXX -bench 'Tridiag|Factor|Smooth|ParticleWork' ./internal/kernels

# The wire and file layers under adi_ckpt_tcp, in-package because a PR
# that claims a gain may not touch bench/: warm TCP round trips of 64 B,
# 256 KiB and 1 MiB with every received buffer released, bare and under
# CRC32C (the spine's msg.tcp.* probes echo p.Data back and never release,
# so they see the send side only); the word-wise XOR against the byte
# loop it replaced; and one warm
# parity save of the 768² grid on 4 ranks over TCP + integrity.
bench-wire:
	$(GO) test -run XXX -bench 'TCPRoundTrip' ./internal/msg
	$(GO) test -run XXX -bench 'XorInto' ./internal/pario
	$(GO) test -run XXX -bench 'CkptSave768' ./internal/ckpt

# Regenerate the EXPERIMENTS.md tables (E1-E4).
experiments:
	$(GO) run ./cmd/vfbench

# The paper's compiler-analysis artifacts (E6): reaching sets, DCASE/IDT
# verdicts and the communication / memory report.
analyze:
	$(GO) run ./cmd/vfanalyze -demo fig1 -comm
	$(GO) run ./cmd/vfanalyze -demo fig2 -comm
	$(GO) run ./cmd/vfanalyze -demo example2 -comm
	$(GO) run ./cmd/vfanalyze -demo example4 -comm

# Every example at a small size, then each one's Example (default flags,
# checked output; tier-1 runs those too).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/adi -nx 64 -ny 64 -iters 2
	$(GO) run ./examples/pic -ncell 128 -steps 40
	$(GO) run ./examples/smoothing -n 128
	$(GO) run ./examples/dcase
	$(GO) run ./examples/connect
	$(GO) test ./examples/...

clean:
	$(GO) clean ./...
