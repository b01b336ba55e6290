"""Running the verification campaigns from Python.

Each campaign enumerates an instance family from its default config (one
registry entry in alontarsi.verify), runs every claim, and yields one report
per instance.  The same campaigns back the acceptance suite and the
`alontarsi verify` subcommand.
"""

import time

from alontarsi import run_campaign
from alontarsi.verify import campaign_passed, default_config

for name in ("thm1", "cor3", "thm4", "duality", "sandwich", "thm2"):
    cfg = default_config(name)
    started = time.time()
    reports = run_campaign(name)
    status = "PASS" if campaign_passed(reports) else "FAIL"
    skips = sum(
        1 for r in reports if any(v == "SKIP" for v in r["claims"].values())
    )
    print(
        f"{name:<9} {status}  {len(reports):>4} instances, {skips} skipped, "
        f"{time.time() - started:5.1f}s   config={cfg}"
    )

# a single report, in full
report = run_campaign("thm1", overrides={"graphs": ["K4"]})[0]
print("\nthe K4 report from the factorization campaign:")
for key, value in report.items():
    print(f"  {key}: {value}")
