//===- bench/fig4_overall.cpp - Fig 4 reproduction -------------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Fig 4: all seven programs under a 64 GB heap with DRAM : memory = 1/3;
/// elapsed time and energy of the Unmanaged and Panthera configurations,
/// normalized to the 64 GB DRAM-only baseline.
///
/// Paper reference (time, energy) normalized to DRAM-only:
///   PR  U(1.25,0.71) P(1.11,0.66) | KM U(1.15,0.66) P(0.91,0.56)
///   LR  U(1.15,0.68) P(0.99,0.61) | TC U(1.37,0.74) P(1.24,0.70)
///   CC  U(1.18,0.69) P(0.96,0.61) | SSSP U(1.15,0.66) P(1.01,0.64)
///   BC  U(1.25,0.69) P(1.08,0.60)
/// Averages: Unmanaged +21.4% time / -31.0% energy;
///           Panthera   +4.3% time / -37.4% energy.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Statistics.h"

using namespace panthera;
using namespace panthera::bench;

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv);
  banner("Fig 4", "Overall time & energy, 64GB heap, 1/3 DRAM, normalized "
                  "to 64GB DRAM-only",
         Scale);

  struct PaperRef {
    const char *Name;
    double UT, UE, PT, PE;
  };
  const PaperRef Refs[] = {
      {"PR", 1.25, 0.71, 1.11, 0.66},  {"KM", 1.15, 0.66, 0.91, 0.56},
      {"LR", 1.15, 0.68, 0.99, 0.61},  {"TC", 1.37, 0.74, 1.24, 0.70},
      {"CC", 1.18, 0.69, 0.96, 0.61},  {"SSSP", 1.15, 0.66, 1.01, 0.64},
      {"BC", 1.25, 0.69, 1.08, 0.60},
  };

  std::printf("\n%-5s | %-23s | %-23s | paper (Unm t,e | Pan t,e)\n", "",
              "Unmanaged  time  energy", "Panthera   time  energy");
  std::vector<double> UT, UE, PT, PE;
  bool AllChecksumsAgree = true;
  for (const PaperRef &Ref : Refs) {
    const workloads::WorkloadSpec *Spec = workloads::findWorkload(Ref.Name);
    Experiment Base =
        runExperiment(*Spec, gc::PolicyKind::DramOnly, 64, 1.0, Scale);
    Experiment U = runExperiment(*Spec, gc::PolicyKind::Unmanaged, 64,
                                 1.0 / 3.0, Scale);
    Experiment P = runExperiment(*Spec, gc::PolicyKind::Panthera, 64,
                                 1.0 / 3.0, Scale);
    double Ut = U.Report.TotalNs / Base.Report.TotalNs;
    double Ue = U.Report.TotalJoules / Base.Report.TotalJoules;
    double Pt = P.Report.TotalNs / Base.Report.TotalNs;
    double Pe = P.Report.TotalJoules / Base.Report.TotalJoules;
    UT.push_back(Ut);
    UE.push_back(Ue);
    PT.push_back(Pt);
    PE.push_back(Pe);
    AllChecksumsAgree &=
        Base.Checksum == U.Checksum && Base.Checksum == P.Checksum;
    std::printf("%-5s |        %6.2f  %6.2f  |        %6.2f  %6.2f  | "
                "(%.2f,%.2f | %.2f,%.2f)\n",
                Ref.Name, Ut, Ue, Pt, Pe, Ref.UT, Ref.UE, Ref.PT, Ref.PE);
  }
  std::printf("%-5s |        %6.2f  %6.2f  |        %6.2f  %6.2f  | "
              "(1.21,0.69 | 1.04,0.63)\n",
              "mean", geomean(UT), geomean(UE), geomean(PT), geomean(PE));

  std::printf("\nshape checks:\n");
  std::printf("  Panthera time <= Unmanaged time (mean):  %s\n",
              geomean(PT) <= geomean(UT) ? "yes" : "NO");
  std::printf("  Panthera <= Unmanaged time:");
  for (size_t I = 0; I != PT.size(); ++I)
    std::printf(" %s %s", Refs[I].Name, PT[I] <= UT[I] ? "yes" : "no");
  std::printf("\n");
  std::printf("  Panthera energy <= Unmanaged energy:     %s\n",
              geomean(PE) <= geomean(UE) ? "yes" : "NO");
  std::printf("  hybrid saves substantial energy (<0.8):  %s\n",
              geomean(PE) < 0.8 ? "yes" : "NO");
  std::printf("  results identical across policies:       %s\n",
              AllChecksumsAgree ? "yes" : "NO");
  return 0;
}
