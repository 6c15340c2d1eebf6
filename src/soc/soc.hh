/**
 * @file
 * The IoT430 SoC: an MSP430-class 16-bit microcontroller elaborated to
 * a gate-level netlist.
 *
 * The SoC contains a multi-cycle FSM core (fetch / immediate fetch /
 * memory read / execute / memory write / stack states), a 16-entry
 * register file (r0 hardwired zero, r1 the stack pointer), a program
 * ROM, a data RAM, four 16-bit GPIO port pairs (PxIN input / PxOUT
 * output registers) and a gate-level watchdog timer that fires a
 * power-on reset (POR) resetting every flip-flop but no memory --
 * exactly the substrate the paper's software techniques rely on.
 *
 * This stands in for the openMSP430 placed-and-routed netlist used in
 * the paper (see DESIGN.md, substitutions).
 */

#ifndef GLIFS_SOC_SOC_HH
#define GLIFS_SOC_SOC_HH

#include <memory>

#include "assembler/program_image.hh"
#include "isa/isa.hh"
#include "netlist/netlist.hh"
#include "rtl/bus.hh"
#include "sim/signal_state.hh"

namespace glifs
{

/** Geometry knobs for the SoC. */
struct SocConfig
{
    size_t progWords = iot430::kProgWords;
    size_t ramWords = iot430::kRamWords;
};

/** FSM state encoding of the IoT430 control unit. */
enum class CoreState : uint8_t
{
    Fetch = 0,
    SrcImm = 1,
    DstImm = 2,
    ReadMem = 3,
    Exec = 4,
    WriteMem = 5,
    Push = 6,
    Pop = 7,
    Ret = 8,
    Call = 9,
    Halt = 10,
};

/** White-box probe points used by simulation, analysis and checking. */
struct SocProbes
{
    // Primary inputs.
    NetId extReset = kNoNet;
    Bus portIn[4];           ///< P1IN..P4IN

    // Core state.
    Bus pcQ;                 ///< PC register outputs
    Bus pcD;                 ///< PC register next-value nets
    std::vector<GateId> pcFlops;
    Bus stateQ;              ///< FSM state register
    Bus irQ;                 ///< instruction register
    Bus instrAddrQ;          ///< address of the executing instruction
    Bus spQ;                 ///< stack pointer
    Bus flagsQ;              ///< Z,N,C,V
    std::vector<Bus> gprQ;   ///< r2..r15 outputs (index 0 -> r2)
    NetId haltNet = kNoNet;  ///< 1 while the FSM sits in Halt
    NetId fetchNet = kNoNet; ///< 1 during instruction fetch cycles

    // Memory interface.
    MemId progMem = 0;
    MemId dataMem = 0;
    Bus dmemReadAddr;        ///< full 16-bit effective read address
    Bus dmemWriteAddr;       ///< full 16-bit effective write address
    Bus dmemWriteData;
    NetId memWriteState = kNoNet;  ///< a store-type state is active
    NetId ramWriteEn = kNoNet;

    // Peripherals.
    Bus portOut[4];          ///< P1OUT..P4OUT register outputs
    NetId wdtWriteEn = kNoNet;  ///< write-enable of the WDT control
    Bus wdtCounterQ;
    NetId wdtHoldQ = kNoNet;
    NetId wdtExpired = kNoNet;
    NetId porNet = kNoNet;
};

/**
 * Construct-once SoC: builds the netlist in the constructor.
 */
class Soc
{
  public:
    explicit Soc(const SocConfig &cfg = {});
    ~Soc();

    Soc(const Soc &) = delete;
    Soc &operator=(const Soc &) = delete;

    const Netlist &netlist() const { return nl; }
    const SocProbes &probes() const { return prb; }
    const SocConfig &config() const { return cfg; }

    /**
     * The program memory's cells holding @p image: every word known
     * and untainted, zero past the image. A Simulator takes them
     * through Simulator::setMemCells().
     */
    TernPlanes programCells(const ProgramImage &image) const;

    /** Load @p image into the program memory of a SignalState. */
    void loadProgram(SignalState &state, const ProgramImage &image) const;

    /** Concrete helper: read a register value from a state (0 = r0). */
    uint16_t regValue(const SignalState &state, unsigned reg) const;

    /** Concrete helper: read the PC. */
    uint16_t pcValue(const SignalState &state) const;

    /** Concrete helper: read a RAM word (full data-space address). */
    uint16_t ramValue(const SignalState &state, uint16_t addr) const;

  private:
    SocConfig cfg;
    Netlist nl;
    SocProbes prb;
};

} // namespace glifs

#endif // GLIFS_SOC_SOC_HH
