# Convenience aliases; `make check` is the tier-1 gate CI runs.

.PHONY: all build test check bench bench-connections check-figures clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

bench:
	dune exec bench/main.exe

# Connection-scaling sweep of the reactor event core (needs a high fd
# soft limit; levels above the limit are skipped with a note).
bench-connections:
	bash -c 'ulimit -n 20000 2>/dev/null; \
	  dune exec bench/main.exe -- -o . reactor'

# The full-scale Sec. 6 set, compared with the committed results/*.csv
# (I/O, sizes and plan choices exactly; time columns are not gated).
check-figures:
	dir=$$(mktemp -d) && dune exec bench/main.exe -- -o $$dir && \
	  python3 bench/check_figures.py results $$dir

clean:
	dune clean
