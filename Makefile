# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-csv bench-json perf-smoke promote-golden fuzz fuzz-distill fuzz-predict daemon-smoke examples clean loc

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-csv:
	dune exec bench/main.exe -- --csv results

# machine-readable baseline: headline experiment, hot-path micros and
# every perf guard; each guard measurement is one row of the report's
# guards array (schema: bench/guard.mli)
bench-json:
	dune exec bench/main.exe -- E1 micro TRACEG FAULTG POOLG SBLKG ADPTG SJRNLG SVCG --json BENCH_mssp.json

# quick perf regression check: reduced-scale E1 and the timed perf
# guards. Each guard's bound and the condition under which it is
# enforced (core count, clock noise) are one table at the top of the
# guard section of bench/experiments.ml; semantic checks (final state
# = SEQ, bit-identical cycles) always run
perf-smoke:
	timeout 300 dune exec bench/main.exe -- E1s TRACEG FAULTG POOLG SBLKG SJRNLG SVCG

# regenerate test/golden/*.trace from the current machine (review the
# diff before committing: goldens exist to make event-stream changes
# deliberate)
promote-golden:
	PROMOTE_GOLDEN=1 dune exec test/test_trace.exe -- test golden

# differential fuzzing: SEQ vs MSSP config grid vs formal models.
# Failing programs are shrunk and written to fuzz/corpus/ as .s repros.
# JOBS worker domains run independently seeded shards; every parallel
# finding prints its exact --jobs 1 replay line.
fuzz:
	dune exec -- mssp_sim fuzz --seed $${SEED:-1} --count $${COUNT:-500} --jobs $${JOBS:-4} --out fuzz/corpus

# the pass-subset axis: each program judged on the distiller grid (empty
# pipeline, every pass alone, a random valid subset — pass-checker on);
# failing subset points dump per-pass diff artifacts to _distill_failures/
fuzz-distill:
	dune exec -- mssp_sim fuzz --distill-grid --seed $${SEED:-1} --count $${COUNT:-300} --jobs $${JOBS:-4} --out fuzz/corpus

# the predictor axis: each program judged on every live-in predictor
# mode (plus the tournament under fault injection) — prediction only
# guides speculation, so every mode must land bit-identical on SEQ;
# failing modes dump stats + event trails to _predict_failures/
fuzz-predict:
	dune exec -- mssp_sim fuzz --predict-grid --seed $${SEED:-1} --count $${COUNT:-300} --jobs $${JOBS:-4} --out fuzz/corpus

# end-to-end daemon smoke: boot mssp_simd on a private socket, hammer
# it with concurrent generated jobs — every result diffed bit-for-bit
# against the in-process serial oracle, duplicates exercising the
# distillation cache, an oversubmission burst answered with structured
# queue_full rejections — then SIGTERM it and require a clean drain.
# COUNT/CLIENTS/SEED override the load shape.
daemon-smoke: build
	@sock=$$(mktemp -u); \
	./_build/default/bin/mssp_simd.exe --socket $$sock --workers 4 --queue-cap 32 & \
	simd=$$!; \
	trap 'kill -9 '$$simd' 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do [ -S $$sock ] && break; sleep 0.1; done; \
	[ -S $$sock ] || { echo "daemon-smoke: daemon never bound $$sock"; exit 1; }; \
	./_build/default/bin/mssp_sim.exe client load --socket $$sock \
	  --count $${COUNT:-200} --clients $${CLIENTS:-8} --oversubmit 40 \
	  --seed $${SEED:-7} --quiet || exit 1; \
	kill -TERM $$simd; \
	for i in $$(seq 100); do kill -0 $$simd 2>/dev/null || break; sleep 0.1; done; \
	if kill -0 $$simd 2>/dev/null; then \
	  echo "daemon-smoke: daemon did not drain on SIGTERM"; exit 1; fi; \
	echo "daemon-smoke: ok (load verified against the serial oracle; SIGTERM drained cleanly)"

examples:
	dune exec examples/quickstart.exe
	dune exec examples/distillation_tour.exe
	dune exec examples/formal_refinement.exe
	dune exec examples/pipeline_sweep.exe
	dune exec examples/adversarial_master.exe
	dune exec examples/compile_and_speculate.exe

clean:
	dune clean

# lines of OCaml in the tracked tree (build outputs and the benchmark's
# .bench_build/ copy are untracked, so they never count); outside a git
# checkout there is no tracked tree to count, and the target fails
loc:
	@files=$$(git ls-files '*.ml' '*.mli' 2>/dev/null) || { \
	  echo "loc: git ls-files failed (not a git checkout?)" >&2; exit 1; }; \
	echo "$$files" | xargs wc -l | tail -1
