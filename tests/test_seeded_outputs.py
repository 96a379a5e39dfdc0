"""Seeded outputs keep their bytes across commits.

The lines are the digests of `benchmarks/seeded_outputs.py`: every output of
its seeded `generate`, `measure` and sweep runs.  A
pinned line changes only together with a CHANGES.md entry that names the
output and the reason.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import seeded_outputs  # noqa: E402

PINNED = """\
e12930428bb88fa41b69b8f4e8047ef0f27ed199ec346f8e5581249cc565b6b3  cm-draw.csv
8550253aaf9f9d13538b0f0c3e5e01355caabba709f51a33636c7966d0fcb19d  cm.csv
1c04ac873e6ab633aacc33d0e1c5ad554646536d151f8340d7572282991ae388  cm.tsv
cc2cd17b8f13b2adba595171d0685cd61c18425d83cf11ec42adc8e327b8cf25  cm.tsv.meta.json
f4ef72b7e125d0c2e59457aecf423a2f59df8bb6837ad4c3c61abcffd599192e  consistency-wide.csv
cf9ecfe7f604d1657c52e54b3319de97c289e5268c5dcd556dd15b79fe82222d  consistency.csv
e958b5cb312333a833a7467eea7a96050f6c46dce7c9e73c5e150cb7af62f208  ecm.json
79c5cf53245b904d4c49c749673b38341ad6e27115cc3c87c8332bfe19ed858a  ecm.tsv
430f3cbdb2cfca09e19a04a4ed077a74b89abf009135326b7b55677633e86cbc  ecm.tsv.meta.json
fdc99a5b373777734902fbc5d88969fe76838b4fd5293516795e59e69101d88a  null-model-draws.csv
1022a004f13ed3447efd6057c0f2873cacabbe836e53d8af0033e527e833a734  null-model-draws.csv.summary.csv
18f827cc1d0a81b79f5dcc07d8966f3ddb0f95ea9a661b8e6fcdd3d70bb9d2ed  null-model.csv
ecd6554b3ba3b880cbf4df427ac8f6b905746a13a6aaeedefefe1833ab0f8915  null-model.csv.summary.csv
48af44c4ef5543df9f0b44589566037726f542a231ff7e972e080839abe63e9f  rcm.tsv
4baf8f356feb2ddd72abb5dbf78a193e8b313b2bcae453e506ced83746891eea  rcm.tsv.meta.json
de1ec4dd4413a699952069952dbba48364aabfbcdf0071e402c6b15b38939099  table1.csv
""".splitlines()


def test_seeded_outputs_match_the_pinned_digests():
    assert seeded_outputs.digest_lines() == PINNED
