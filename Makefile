PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint sanitize obs-demo serve-smoke faults crashcheck dirtbuster-smoke experiments-smoke experiments-ratchet examples-smoke

test:
	$(PYTHON) -m pytest -x -q

# Single lint entry point: the repo's own workload lint plus ruff/mypy
# when installed (they are optional; missing tools are reported and
# skipped so the target works in the bare test container).
lint:
	$(PYTHON) -m repro.sanitize --self

sanitize:
	$(PYTHON) -m repro.sanitize examples/quickstart.py

# Serving smoke: a small open-loop serving run with a crash at 60% of
# the arrival horizon, asserting the latency percentiles (p50/p99/p999),
# SLO, and durability fields are present and that the batched-stream
# RunResult JSON is byte-identical to the reference vocabulary's
# (CI's serve-smoke job).
serve-smoke:
	$(PYTHON) -m repro.traffic smoke --ops 800 --keys 512 --value-size 512

# DirtBuster smoke: run the tool end to end on nas-is (a random writer
# that opens one sequentiality context per write), clht and nas-mg (the
# most stream-heavy traced runs, which take the fused stream path), x9
# on Machine B (weak model: WAIT/POST and fences in the one traced run),
# gzip (not write-intensive, so steps 2-3 are skipped), masstree (KV
# value crafting under craft_value, leaf-lock atomics and Listing 7's
# load fences) and tensorflow (the largest trace: 710 K accesses in the
# full tracer), and check their Table 2 rows.  CI runs it under a
# 5-minute timeout, so a lookup that scans every open context again
# (minutes on nas-is) fails the job.
dirtbuster-smoke:
	mkdir -p build
	$(PYTHON) -m repro.dirtbuster nas-is > build/dirtbuster-nas-is.txt
	grep -E '^nas-is +yes +- +-$$' build/dirtbuster-nas-is.txt
	$(PYTHON) -m repro.dirtbuster clht > build/dirtbuster-clht.txt
	grep -E '^clht +yes +yes +yes$$' build/dirtbuster-clht.txt
	$(PYTHON) -m repro.dirtbuster nas-mg > build/dirtbuster-nas-mg.txt
	grep -E '^nas-mg +yes +yes +-$$' build/dirtbuster-nas-mg.txt
	$(PYTHON) -m repro.dirtbuster x9 --machine b-fast > build/dirtbuster-x9.txt
	grep -E '^x9 +yes +yes +yes$$' build/dirtbuster-x9.txt
	$(PYTHON) -m repro.dirtbuster gzip > build/dirtbuster-gzip.txt
	grep -E '^gzip +- +- +-$$' build/dirtbuster-gzip.txt
	$(PYTHON) -m repro.dirtbuster masstree > build/dirtbuster-masstree.txt
	grep -E '^masstree +yes +yes +yes$$' build/dirtbuster-masstree.txt
	$(PYTHON) -m repro.dirtbuster tensorflow > build/dirtbuster-tensorflow.txt
	grep -E '^tensorflow +yes +yes +-$$' build/dirtbuster-tensorflow.txt

# Shape-check gate for the Machine B fence experiments (fig5, x9,
# listing3) and the fault-plan ones (serve, faults-window): the five
# run in fast mode and the CLI exits 3 when any of them prints SHAPE
# CHECK FAILED.  The five run again as one pooled sweep (--workers 2),
# which must match the serial run byte for byte, and fig5 and x9 (the
# Machine B read streams) run again in the per-access reference
# vocabulary (REPRO_SIM_REFERENCE=1), which must match their batched
# run.  Last, ci/kill_resume.py runs the pooled sweep with a
# --cache-dir, sends the CLI alone SIGKILL after its first stored cell,
# requires its pool workers to exit on their own within 5 s, and re-runs
# it: the re-run must store exactly the cells the kill lost and write the
# serial run's markdown.  It takes seconds; CI runs it under a 5-minute
# timeout.
experiments-smoke:
	@mkdir -p build
	$(PYTHON) -m repro.experiments.cli fig5 x9 --markdown build/streams.md
	$(PYTHON) -m repro.experiments.cli fig5 x9 listing3 serve faults-window --markdown build/smoke-serial.md
	$(PYTHON) -m repro.experiments.cli fig5 x9 listing3 serve faults-window --workers 2 --markdown build/smoke-pooled.md
	diff build/smoke-serial.md build/smoke-pooled.md
	REPRO_SIM_REFERENCE=1 $(PYTHON) -m repro.experiments.cli fig5 x9 --markdown build/reference.md
	diff build/streams.md build/reference.md
	$(PYTHON) ci/kill_resume.py build/smoke-serial.md build/smoke-resumed.md build/smoke-cache \
		fig5 x9 listing3 serve faults-window

# Shape-check ratchet: every experiment, in fast mode and then --full,
# as one pooled sweep each (--workers 2).  The CLI exits 3 when any
# check fails and 1 when it crashes, so only a crash (any status but 0
# and 3) stops the target there; ci/shape_ratchet.py then compares the ids whose
# section says SHAPE CHECK FAILED with the committed list for the mode,
# exactly.  A new failure fails the target, and so does a listed
# failure that now passes.  Each run's stdout (per-experiment seconds,
# path counts and peak RSS) goes to build/all-{fast,full}.log through a
# plain redirect: a pipe would hide the CLI's exit status from the
# check.  About 1 and 2.5 minutes on two cores.
experiments-ratchet:
	@mkdir -p build
	rm -f build/all-fast.md build/all-full.md build/all-fast.log build/all-full.log
	$(PYTHON) -m repro.experiments.cli --all --workers 2 --markdown build/all-fast.md \
		> build/all-fast.log || [ $$? -eq 3 ]
	$(PYTHON) ci/shape_ratchet.py build/all-fast.md ci/shape-failures-fast.txt
	$(PYTHON) -m repro.experiments.cli --all --full --workers 2 --markdown build/all-full.md \
		> build/all-full.log || [ $$? -eq 3 ]
	$(PYTHON) ci/shape_ratchet.py build/all-full.md ci/shape-failures-full.txt

# Examples smoke: run every examples/*.py script and fail on the first
# non-zero exit.  examples/autotune_pass.py is the AutoTuner's one caller
# outside the tests.  About 11 s on two cores (CI's examples-smoke job).
examples-smoke:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

# Crash-consistency self-check: seeded crash/fault matrix on machine A
# and B-slow, asserting protocol durability, baseline vulnerability,
# determinism, and the empty-plan bit-identity (CI's faults job).  Then
# one crashed run with an obs collector, whose Perfetto trace must carry
# the crash as a fault.crash instant marker.
faults:
	mkdir -p build
	$(PYTHON) -m repro.faults matrix
	$(PYTHON) -m repro.faults run --crash-frac 0.5 --trace build/faults.trace.json > /dev/null
	$(PYTHON) -c "import json; d = json.load(open('build/faults.trace.json')); \
		marks = [e for e in d['traceEvents'] if e['name'] == 'fault.crash' and e['ph'] == 'i']; \
		assert len(marks) == 1, marks; print('crash marker OK at cycle', marks[0]['ts'])"

# Static crash-consistency verification self-check: protocol
# classification expectations plus the static<->dynamic differential
# matrix on machine A and B-slow, ADR and media-only, pre-store
# protocols off and on (CI's crashcheck job).
crashcheck:
	$(PYTHON) -m repro.crashcheck self

# Telemetry smoke: run one workload with obs attached, produce a
# Perfetto trace artifact under build/, validate it, then run the
# end-to-end pipeline self-check.  CI uploads build/obs/ as an artifact.
obs-demo:
	mkdir -p build/obs
	$(PYTHON) -m repro.obs run --workload listing1 --seed 7 \
		--trace build/obs/listing1.trace.json --json build/obs/listing1.result.json
	$(PYTHON) -c "import json; d = json.load(open('build/obs/listing1.trace.json')); \
		assert d['traceEvents'], 'empty trace'; \
		print('trace OK:', len(d['traceEvents']), 'events')"
	$(PYTHON) -m repro.obs --self-check
