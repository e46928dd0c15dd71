#!/usr/bin/env bash
# Write the CLI outputs whose bytes a change that keeps every answer must not
# change, 37 files, into the directory OUTDIR:
#   - 3 device files (generate, N = 1, 3 and 16)
#   - 12 reconstructions: N = 3 and 16 x both schemes x shots 3, 100 and inf
#   - 2 reconstructions at N = 16, both schemes at 1000 shots: sampling blocks
#     taller than a model's factor tiles
#   - 2 reconstructions at N = 16, homodyne at 2048 and 2050 shots: a setting's
#     X and P shots just fit one sampling block (2 x 1024 x 16 values), and just
#     do not, so each quadrature is drawn in a block of its own
#   - 6 reconstructions at N = 1 (2 settings), both schemes at 100, 10**4 and
#     100003 shots; at 100003 the shots are drawn in several leaves of NumPy's
#     pairwise split, where a tree drawing one block of every shot has one
#   - 2 reconstructions at N = 3, seeds 2**64 - 1 (the largest master a stream
#     table holds) and 2**64 (the smallest that takes default_rng)
#   - the four README experiments at reduced --reps: 4 CSV and 4 .meta.json files
#   - 2 detect verdicts, analytic and at 100 shots
# The package is imported from PYTHONPATH, which must be absolute, so that one
# script can run against two trees and their outputs be compared with diff -r:
#   PYTHONPATH="$PWD/src" .github/outputs.sh OUTDIR
set -euo pipefail
mkdir -p "$1"
cd "$1"  # relative paths: each .meta.json records its invocation
gt() { python -m gausstomo.cli "$@"; }

for n in 3 16; do
  gt generate --kind symplectic --modes "$n" --r-max 0.5 --seed 7 --out "s$n.json"
  for scheme in homodyne heterodyne; do
    for shots in 3 100 inf; do
      gt reconstruct --device "s$n.json" --scheme "$scheme" --shots "$shots" \
        --loss 0.5 --seed 0 --out "recon-$n-$scheme-$shots.json"
    done
  done
done
gt generate --kind symplectic --modes 1 --r-max 0.5 --seed 7 --out s1.json
for scheme in homodyne heterodyne; do
  gt reconstruct --device s16.json --scheme "$scheme" --shots 1000 \
    --loss 0.5 --seed 0 --out "recon-16-$scheme-1000.json"
  for shots in 100 10000 100003; do
    gt reconstruct --device s1.json --scheme "$scheme" --shots "$shots" \
      --loss 0.5 --seed 0 --out "recon-1-$scheme-$shots.json"
  done
done
for shots in 2048 2050; do
  gt reconstruct --device s16.json --scheme homodyne --shots "$shots" \
    --loss 0.5 --seed 0 --out "recon-16-homodyne-$shots.json"
done
for seed in 18446744073709551615 18446744073709551616; do
  gt reconstruct --device s3.json --scheme heterodyne --shots 100 \
    --loss 0.5 --seed "$seed" --out "recon-3-seed-$seed.json"
done
gt experiment mode-scaling --modes 2,4,8,12 --schemes homodyne,heterodyne \
  --losses 0,0.5 --shots 100 --reps 3 --seed 41 --out modes.csv
gt experiment unitary-scaling --modes 2,4,8 --schemes homodyne,heterodyne \
  --shots 100 --reps 3 --seed 3 --out unitary.csv
gt experiment intensity --amplitudes 10,31.62,100 --trials 1,10,100 \
  --shots 100 --reps 2 --seed 1 --out intensity.csv
gt experiment phase-error --phi-max 0.05 --trials 1,10,100,1000 \
  --reps 3 --seed 2 --out phase.csv
gt detect --gamma 0.1 --amplitudes 1,2 --shots inf > detect-inf.txt
gt detect --gamma 0.1 --amplitudes 1,2,3 --shots 100 --seed 5 > detect-100.txt
