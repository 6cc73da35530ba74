"""Figure 9: energy per instruction; RISSPs ~40x better than Serv."""

from repro.core.metrics import RISSP_CPI
from repro.data import paper
from repro.synth import SERV_CPI


def test_bench_fig9_epi(benchmark, rissp_reports, rv32e_report,
                        serv_report):
    def epi_table():
        return {name: rep.energy_per_instruction_nj(RISSP_CPI)
                for name, rep in rissp_reports.items()}

    table = benchmark.pedantic(epi_table, rounds=1, iterations=1)
    serv_epi = serv_report.energy_per_instruction_nj(SERV_CPI)
    rv32e_epi = rv32e_report.energy_per_instruction_nj(RISSP_CPI)
    print("\n=== Figure 9: energy per instruction (nJ) ===")
    ratios = []
    for name in sorted(table):
        ratios.append(serv_epi / table[name])
        print(f"{name:<16} {table[name]:>7.3f} nJ  ({ratios[-1]:5.1f}x "
              f"better than Serv)")
    print(f"{'RISSP-RV32E':<16} {rv32e_epi:>7.3f} nJ "
          f"({serv_epi / rv32e_epi:5.1f}x; paper ~{paper.EPI_RATIO_RV32E}x)")
    print(f"{'Serv':<16} {serv_epi:>7.3f} nJ (CPI {SERV_CPI})")
    avg_ratio = sum(ratios) / len(ratios)
    print(f"average RISSP advantage: {avg_ratio:.0f}x (paper "
          f"~{paper.EPI_RATIO_RISSP_AVG}x)")
    assert 25 < serv_epi / rv32e_epi < 50
    assert 30 < avg_ratio < 70
