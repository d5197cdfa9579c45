#!/usr/bin/env bash
# Checks of the installed `qubitcc` console script that no tier-1 test
# repeats (tests/test_cli.py runs the same commands in-process).
#
#   bash tools/ci_console_checks.sh [OUTPUT_DIR]
#
# Needs the package installed (pip install -e .), so that `qubitcc` is on
# PATH.  Output files go to OUTPUT_DIR, else $RUNNER_TEMP, else a fresh
# temporary directory.  Fails on the first command that fails.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-${RUNNER_TEMP:-$(mktemp -d)}}"
mkdir -p "$out"

qubitcc --help
qubitcc transform tests/data/h2_r1p4.fcidump -o "$out/h2.txt"
qubitcc scan tests/data/h2_r1.fcidump tests/data/h2_r1p2.fcidump \
    tests/data/h2_r1p4.fcidump tests/data/h2_r1p8.fcidump \
    tests/data/h2_r2p4.fcidump \
    --radii 1.0,1.2,1.4,1.8,2.4 --scheme ilcap-pre -o "$out/scan.csv" --workers 2
qubitcc fit-morse "$out/scan.csv" --column E_exact --mu-amu 0.503913
# h4-scan's command path: ilcap-post at two generators per iteration; H2 has one
# generator with a nonzero gradient, so its steps are single-generator
qubitcc scan tests/data/h2_r1.fcidump tests/data/h2_r1p2.fcidump \
    tests/data/h2_r1p4.fcidump tests/data/h2_r1p8.fcidump \
    tests/data/h2_r2p4.fcidump \
    --radii 1.0,1.2,1.4,1.8,2.4 --scheme ilcap-post --gens 2 --iterations 2 \
    -o "$out/scan_post.csv"
qubitcc fit-morse "$out/scan_post.csv" --column "E_QCC(2)+ILCAP+BW" --mu-amu 0.503913
# H4 takes exact two-generator steps; the checkpoint shows the pair
qubitcc transform tests/data/h4_r2p0.fcidump -o "$out/h4.txt"
qubitcc iqcc "$out/h4.txt" --n-elec 4 --gens 2 --iterations 2 \
    --checkpoint-dir "$out/ckpt_h4"
grep '^# generators: .* | ' "$out/ckpt_h4/iteration_001.txt"
qubitcc ilcap "$out/h4.txt" --n-elec 4 --scheme ilcap-post --gens 2 --iterations 2
# three generators per step run exact coordinate sweeps (no bench workload does)
qubitcc iqcc "$out/h4.txt" --n-elec 4 --gens 3 --iterations 2
# 34 qubits: iqcc conjugates masks too wide for a packed key; the same
# integrals on orbitals 1 and 2 (4 qubits) reach the same energy
printf '&FCI NORB=17,NELEC=2 &END\n0.6745 1 1 1 1\n0.1813 17 1 17 1\n0.6636 17 17 1 1\n0.6975 17 17 17 17\n-1.2528 1 1 0 0\n-0.4756 17 17 0 0\n' \
    > "$out/norb17.fcidump"
sed 's/\<17\>/2/g' "$out/norb17.fcidump" > "$out/norb2.fcidump"
for norb in 17 2; do
  qubitcc transform "$out/norb$norb.fcidump" -o "$out/norb$norb.txt"
  qubitcc iqcc "$out/norb$norb.txt" --n-elec 2 --iterations 3 \
      | grep '^energy:' > "$out/norb$norb.energy"
done
cat "$out/norb17.energy"
cmp "$out/norb17.energy" "$out/norb2.energy"
